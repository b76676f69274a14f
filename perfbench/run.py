"""The repo benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload crawl_extract --seed 1 --seconds 10 --trace 0

Run it from the repo root. It generates the workload's inputs from the
seed in a child process (``perfbench/inputs.py``), starts a fresh
single-node Ray session with ``num_cpus`` equal to ``nproc``, sets up
``SETUP_REPS`` times (Ray start plus the workload's first call on small
inputs) and keeps the last session, then runs timed passes until they
add up to ``--seconds``. Each pass's output is checked against its
oracle right after the pass, outside its timing, and then dropped, so
no pass's data is held when the memory peak is read.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones (tracing off); with ``--trace 1``
they are the per-layer ones, from a run whose passes alternate between
untraced and traced, so the tracing overhead is measured in the same
run. Everything else goes to stderr. Scratch files live under
``.perfbench/`` in the working directory; the span file of a traced run
is ``.perfbench/traces/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

WORKLOADS = ("crawl_extract", "recrawl_versioned", "query_mix")
SETUP_REPS = 3
PASS_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170
OBJECT_STORE_MB = 512
# AF_UNIX socket paths are capped at 107 bytes and Ray nests ~64 bytes
# of session/socket names under its temp dir
RAY_TMP_MAX_LEN = 43

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}
# span name -> per-layer metric; a time metric is the median over traced
# passes of the span's self time summed within the pass
TIMED_LAYERS = (
    "sources.decode",
    "schemas.validate",
    "extract.files",
    "extract.exec",
    "extract.batch",
    "dedup",
    "write",
    "metrics.counters",
    "job",
    "tablelog.append",
    "tablelog.merge",
    "tablelog.resume_scan",
    "tablelog.read_head",
    "tablelog.read_asof",
    "relational.q1_pricing_summary",
    "relational.q3_top_orders",
    "relational.usage_rollup",
    "relational.dedup_exact",
    "textops.token_stats",
    "textops.minhash_near_dups",
    "textops.ann_topk",
)
COUNTS = ("dedup.rows_in", "dedup.rows_out", "write.bytes", "tablelog.files_rewritten",
          "tablelog.files_carried", "tablelog.bytes_written")


def time_metric(span: str) -> str:
    return span + ("_s" if "." in span else ".s")


def count_metrics() -> list:
    from textextract_ray.schemas import STATUSES

    return ["extract.docs", *(f"extract.status.{s}" for s in STATUSES), *COUNTS]


def per_layer_units() -> dict:
    units = {time_metric(s): "s" for s in TIMED_LAYERS}
    units.update({c: "count" for c in count_metrics()})
    units.update({"write.bytes": "B", "tablelog.bytes_written": "B"})
    units.update({
        "oracle.docs_per_s": "1/s",
        "ray_data.identity_s": "s",
        "unattributed_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


# --- processes ---------------------------------------------------------------------


def _ppid(pid: str):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None


def descendants(root: int) -> list:
    kids: dict = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            p = _ppid(d)
            if p is not None:
                kids.setdefault(p, []).append(int(d))
    out, todo = [], [root]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of the peak resident set of this process and every process
    it started (Ray's raylet, GCS and workers)."""
    pids = [os.getpid()] + descendants(os.getpid())
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_processes(pids: list, grace_s: float = 5.0) -> None:
    """TERM, then KILL after ``grace_s``; returns once all have ended."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in pids:
            try:
                os.kill(p, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            _reap()
            pids = [p for p in pids if _alive(p)]
            if not pids:
                return
            time.sleep(0.05)


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stale_processes(marker: str) -> list:
    """Processes of an earlier run in this checkout (their command line
    names this run's Ray temp dir) that outlived it."""
    mine = set(descendants(os.getpid())) | {os.getpid()}
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) in mine:
            continue
        try:
            with open(f"/proc/{d}/cmdline", "rb") as fh:
                cmd = fh.read().decode(errors="replace")
        except OSError:
            continue
        if marker in cmd:
            out.append(int(d))
    return out


class Watchdog:
    """Ends the run, naming the workload and the step, when a step or
    the whole run overruns its timeout."""

    def __init__(self, workload: str):
        self.workload = workload
        self.label = None
        self.deadline = None
        self.run_deadline = time.monotonic() + RUN_TIMEOUT_S
        self.cv = threading.Condition()
        threading.Thread(target=self._watch, daemon=True).start()

    def arm(self, label: str, seconds: float) -> None:
        with self.cv:
            self.label, self.deadline = label, time.monotonic() + seconds
            self.cv.notify()

    def disarm(self) -> None:
        with self.cv:
            self.label = self.deadline = None
            self.cv.notify()

    def _watch(self) -> None:
        with self.cv:
            while True:
                due = min(d for d in (self.deadline, self.run_deadline) if d is not None)
                now = time.monotonic()
                if now >= due:
                    break
                self.cv.wait(due - now)
            step = self.label if self.deadline is not None and now >= self.deadline else "run"
            limit = PASS_TIMEOUT_S if step != "run" else RUN_TIMEOUT_S
        sys.stderr.write(
            f"perfbench: {self.workload}: {step} did not finish within {limit} s\n"
        )
        sys.stderr.flush()
        stop_processes(descendants(os.getpid()))
        os._exit(3)


# --- run ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    args = ap.parse_args(argv)
    # numpy seeds must be non-negative
    args.seed %= 1 << 64
    return args


def nproc() -> int:
    """CPUs as ``nproc`` counts them: OMP_NUM_THREADS, when set,
    overrides the affinity mask."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


class Session:
    """Ray start-up with the benchmark's settings."""

    def __init__(self, root: str, work: str, trace_dir: str | None):
        self.temp = os.path.join(work, "ray")
        self.own_temp = len(self.temp) > RAY_TMP_MAX_LEN
        if self.own_temp:
            # the checkout path is too long for Ray's sockets
            self.temp = tempfile.mkdtemp(prefix="pb-ray-")
        os.makedirs(self.temp, exist_ok=True)
        self.trace_dir = trace_dir
        env_path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = root + (os.pathsep + env_path if env_path else "")
        if trace_dir:
            from perfbench.trace import TRACE_DIR_ENV

            os.environ[TRACE_DIR_ENV] = trace_dir

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        kwargs = {}
        if self.trace_dir:
            kwargs["runtime_env"] = {"worker_process_setup_hook": "perfbench.trace.worker_setup"}
        ray.init(
            address="local",
            num_cpus=nproc(),
            object_store_memory=OBJECT_STORE_MB << 20,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.temp,
            **kwargs,
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def stop(self) -> None:
        import ray

        ray.shutdown()
        stop_processes(descendants(os.getpid()))

    def close(self) -> None:
        if self.own_temp:
            shutil.rmtree(self.temp, ignore_errors=True)


def prep_inputs(workload: str, seed: int, size: str, out: str, root: str) -> dict:
    """Inputs are made in a child process, so their cost stays out of
    this process's memory peak."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.inputs", workload, str(seed), size, out],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def identity_floor(shards: list) -> float:
    """No-op map_batches over the same shards: Ray Data's own cost."""
    import ray.data as rd

    t0 = time.perf_counter()
    rd.read_parquet(shards).map_batches(lambda b: b, batch_format="pyarrow").materialize()
    return time.perf_counter() - t0


def run(args, root: str, wd: Watchdog) -> dict:
    from perfbench import trace as tr
    from perfbench import workloads

    work = os.path.join(root, ".perfbench")
    run_dir = os.path.join(work, "run")
    stop_processes(stale_processes(os.path.join(work, "ray")))
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(os.path.join(work, "ray"), ignore_errors=True)
    trace_dir = os.path.join(run_dir, "trace") if args.trace else None
    if trace_dir:
        os.makedirs(trace_dir)

    wd.arm("input generation", PASS_TIMEOUT_S)
    info = prep_inputs(args.workload, args.seed, args.size, os.path.join(run_dir, "prep"), root)
    wd.disarm()
    log(f"{args.workload}: inputs ready in {info['prep_s']:.2f} s "
        f"(corpus {info['main'].get('corpus', {})})")

    tracer = tr.Tracer()
    if args.trace:
        tr.install_driver(tracer)
    wl = workloads.make(args.workload, info, run_dir, tracer, args.seed)
    session = Session(root, work, trace_dir)
    try:
        setups = []
        for i in range(SETUP_REPS):
            wd.arm(f"set-up {i}", PASS_TIMEOUT_S)
            t0 = time.perf_counter()
            session.start()
            wl.warm(f"warm{i}")
            setups.append(time.perf_counter() - t0)
            wd.disarm()
            if i < SETUP_REPS - 1:
                session.stop()
        log(f"{args.workload}: set up")

        walls, traced_walls, passes = [], [], []
        attempted = failed = 0
        flag = os.path.join(trace_dir, tr.FLAG) if trace_dir else None
        i = 0
        # at least four untraced passes (the first may still pay cold
        # costs) or, when tracing, three untraced and three traced
        min_passes = 6 if args.trace else 4
        while i < min_passes or sum(walls) + sum(traced_walls) < args.seconds:
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                tracer.enabled, tracer.pass_id = True, i
                open(flag, "w").close()
            wd.arm(f"pass {i}", PASS_TIMEOUT_S)
            try:
                with tracer.span("pass"):
                    t0 = time.perf_counter()
                    res = wl.run(info["main"], f"pass{i}")
                    wall = time.perf_counter() - t0
            except Exception:
                # a raised pass is one failed operation; the run goes on
                traceback.print_exc()
                attempted += 1
                failed += 1
                i += 1
                continue
            finally:
                wd.disarm()
                if traced:
                    tracer.enabled = False
                    os.remove(flag)
            (traced_walls if traced else walls).append(wall)
            wd.arm(f"check of pass {i}", PASS_TIMEOUT_S)
            a, f = wl.check(res)
            attempted += a
            failed += f
            passes.append({
                "i": i, "traced": traced, "wall": wall, "space_amp": wl.space_amp(res),
                "counts": wl.layer_counts(res) if traced else {},
            })
            wd.disarm()
            del res
            i += 1
        peak = peak_rss_mb()
        if not walls or (args.trace and not traced_walls):
            raise RuntimeError(f"{args.workload}: no pass completed")

        log(f"{args.workload}: setups {[round(s, 3) for s in setups]}, "
            f"pass walls {[round(w, 3) for w in walls]}, "
            f"traced {[round(w, 3) for w in traced_walls]}")
        if args.trace:
            floor = identity_floor(info["main"]["shards"]) if "shards" in info["main"] else 0.0
            spans = tr.load_spans(tracer, trace_dir)
            metrics = layer_metrics(spans, passes, info, walls, traced_walls, floor)
            write_trace(spans, work, args, metrics)
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "rows_per_s": statistics.median(wl.rows() / w for w in walls),
                "space_amp": statistics.median(p["space_amp"] for p in passes),
                "peak_rss_mb": peak,
            }
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        wd.arm("shutdown", PASS_TIMEOUT_S)
        session.stop()
        session.close()
        wd.disarm()


def layer_metrics(spans, passes, info, walls, traced_walls, floor) -> dict:
    from perfbench import trace as tr

    selfs = tr.self_times(spans)
    tallies = tr.counts(spans)
    per_pass = []
    for p in passes:
        if not p["traced"]:
            continue
        own = selfs.get(p["i"], {})
        m = {time_metric(s): own.get(s, 0.0) for s in TIMED_LAYERS}
        m["unattributed_s"] = p["wall"] - sum(v for k, v in own.items() if k != "pass")
        m.update({c: 0 for c in count_metrics()})
        m.update(tallies.get(p["i"], {}))
        m["dedup.rows_in"] = m["extract.docs"]
        m.update(p["counts"])
        per_pass.append(m)
    units = per_layer_units()
    out = {k: statistics.median(m.get(k, 0) for m in per_pass) for k in units}
    out["oracle.docs_per_s"] = info["main"].get("oracle_docs_per_s", 0.0)
    out["ray_data.identity_s"] = floor
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_pct"] = 100 * (
        statistics.median(traced_walls) / statistics.median(walls) - 1
    )
    return out


def write_trace(spans: list, work: str, args, metrics: dict) -> None:
    from perfbench import trace as tr

    os.makedirs(os.path.join(work, "traces"), exist_ok=True)
    path = os.path.join(work, "traces", f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "spans": [
                {k: s[k] for k in ("id", "name", "start", "end", "parent", "pass", "counts")}
                for s in spans
            ],
            "self_s": tr.self_times(spans),
            "metrics": metrics,
        }, fh)
    log(f"{args.workload}: spans written to {path}")


_T0 = time.monotonic()


def log(msg: str) -> None:
    sys.stderr.write(f"perfbench: [{time.monotonic() - _T0:6.1f} s] {msg}\n")
    sys.stderr.flush()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not (os.path.isdir(os.path.join(root, "textextract_ray"))
            and os.path.isfile(os.path.join(root, "__ray_entry__.py"))):
        log("run from the repo root: textextract_ray/ and __ray_entry__.py not found")
        return 2
    sys.path.insert(0, root)
    # everything but the result line goes to stderr, child processes
    # included
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    wd = Watchdog(args.workload)
    try:
        result = run(args, root, wd)
    except Exception:
        traceback.print_exc()
        log(f"{args.workload}: failed")
        stop_processes(descendants(os.getpid()))
        return 1
    units = E2E if not args.trace else per_layer_units()
    result["metrics"] = {
        k: {"value": float(result["metrics"][k]), "unit": u} for k, u in units.items()
    }
    result_out.write(json.dumps(result) + "\n")
    result_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
