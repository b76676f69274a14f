"""Outside-in layer tracing for the benchmark.

Spans are recorded around calls into each layer's public functions by
replacing those functions on their modules; the program itself is not
changed. Driver-side layers are wrapped in the benchmark process.
Worker-side layers (shard decode, schema validation, ``ExtractBatch``)
are wrapped inside every Ray worker by ``worker_setup``, which Ray runs
as the worker process setup hook; workers append their spans to a
per-process file that the benchmark process merges after the run.

A span is (id, name, start, end, parent, pass). Clocks are
``time.monotonic``, which is system-wide on Linux, so driver and worker
spans share one time line. A worker span's parent is the innermost
driver span of the main thread that encloses it: that thread is the one
waiting on the extraction work the workers do.

Self time depends on where a span runs:

- a worker span: the CPU time its process spent inside it. Ray runs
  several extraction tasks at once even on one core (a streaming task
  blocked on backpressure gives up its CPU slot), so their wall
  intervals overlap;
- a span of another driver thread (the job's commit thread, which
  overlaps the next partition's extraction): the CPU time that thread
  spent inside it, less its children's;
- a main-thread driver span: its wall time minus the part its
  main-thread and worker children cover, less the CPU time the other
  driver threads took during the rest of it (at the average rate of
  each of their spans), so that time is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
FLAG = "on"  # file in the trace dir; workers record only while it exists


class Tracer:
    """Span recorder of one process. The driver keeps spans in memory;
    a worker (``path`` set) appends each finished span to its file and
    records only while ``flag`` exists."""

    def __init__(self, path: str | None = None, flag: str | None = None):
        self.path = path
        self.flag = flag
        self.enabled = False
        self.pass_id = None
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._n = 0
        self._fh = None

    def on(self) -> bool:
        return os.path.exists(self.flag) if self.flag else self.enabled

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the block as span ``name``; yields a dict for counts."""
        if not self.on():
            yield {}
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._n += 1
            sid = f"{os.getpid()}:{self._n}"
        rec = {
            "id": sid,
            "name": name,
            "parent": stack[-1] if stack else None,
            "pass": self.pass_id,
            "main": threading.current_thread() is threading.main_thread(),
            "worker": self.path is not None,
            "counts": {},
        }
        stack.append(sid)
        cpu0, tcpu0 = time.process_time(), time.thread_time()
        rec["start"] = time.monotonic()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.monotonic()
            rec["cpu"] = time.process_time() - cpu0
            rec["tcpu"] = time.thread_time() - tcpu0
            stack.pop()
            self._emit(rec)

    def _emit(self, rec: dict) -> None:
        if self.path is None:
            with self._lock:
                self.spans.append(rec)
            return
        if self._fh is None:
            self._fh = open(self.path, "a", buffering=1)
        self._fh.write(json.dumps(rec) + "\n")


def wrap(tracer: Tracer, name: str, fn, count=None):
    """``fn`` timed as span ``name``; ``count(counts, result)`` adds
    counts taken from the result."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as counts:
            out = fn(*args, **kwargs)
            if count is not None and tracer.on():
                count(counts, out)
            return out

    return traced


def patch(tracer: Tracer, modules: list, attr: str, name: str, count=None) -> None:
    """Replace ``attr`` on every module in ``modules`` that binds the
    same function as the first one (callers that imported it by name
    see the wrapper too)."""
    orig = getattr(modules[0], attr)
    traced = wrap(tracer, name, orig, count)
    for m in modules:
        if getattr(m, attr, None) is orig:
            setattr(m, attr, traced)


def install_driver(tracer: Tracer) -> None:
    from textextract_ray.pipelines import extract_pipeline as ep
    from textextract_ray.pipelines import tablelog as tl
    from textextract_ray.stages import metrics

    patch(tracer, [ep], "extract_files", "extract.files")
    orig_dedup = ep.dedup_by_url

    @functools.wraps(orig_dedup)
    def dedup_by_url(ds, *args, **kwargs):
        # dedup_by_url starts by materializing its input, which runs the
        # lazy extract plan; running it first, in a span of its own,
        # keeps that execution out of the dedup layer
        with tracer.span("extract.exec"):
            ds = ds.materialize()
        with tracer.span("dedup"):
            return orig_dedup(ds, *args, **kwargs)

    ep.dedup_by_url = dedup_by_url
    patch(tracer, [ep], "run_job_versioned", "job")
    patch(tracer, [metrics, ep], "aggregate_counters", "metrics.counters")
    patch(tracer, [tl], "table_append", "tablelog.append")
    patch(tracer, [tl], "table_merge", "tablelog.merge")
    # the resume scan: committed notes and history read on job start
    patch(tracer, [tl], "table_notes", "tablelog.resume_scan")
    patch(tracer, [tl], "table_history", "tablelog.resume_scan")


def _count_extract(counts: dict, out) -> None:
    import pyarrow.compute as pc

    counts["docs"] = out.num_rows
    for v in pc.value_counts(out["status"]).to_pylist():
        counts[f"status.{v['values']}"] = v["counts"]


def worker_setup() -> None:
    """Ray worker process setup hook: wrap the worker-side layers."""
    import pyarrow.parquet as pq

    from textextract_ray import schemas, sources
    from textextract_ray.stages import extract

    tdir = os.environ[TRACE_DIR_ENV]
    tracer = Tracer(
        path=os.path.join(tdir, f"worker-{os.getpid()}.jsonl"),
        flag=os.path.join(tdir, FLAG),
    )
    extract.ExtractBatch.__call__ = wrap(
        tracer, "extract.batch", extract.ExtractBatch.__call__, _count_extract
    )
    patch(tracer, [schemas], "validate_table", "schemas.validate")
    patch(tracer, [sources], "open_shard", "sources.decode")
    orig_iter = pq.ParquetFile.iter_batches

    @functools.wraps(orig_iter)
    def iter_batches(self, *args, **kwargs):
        it = orig_iter(self, *args, **kwargs)
        while True:
            with tracer.span("sources.decode"):
                batch = next(it, None)
            if batch is None:
                return
            yield batch

    pq.ParquetFile.iter_batches = iter_batches


# --- analysis ---------------------------------------------------------------------


def load_spans(tracer: Tracer, tdir: str) -> list:
    """Driver spans plus every worker span. A root span of a worker or
    of a driver thread other than the main one (the job's commit
    thread) gets as parent, and pass, the innermost main-thread driver
    span that encloses its start."""
    hosts = [s for s in tracer.spans if s["main"]]
    spans = [s for s in tracer.spans if s["main"] or s["parent"] is not None]
    roots = [s for s in tracer.spans if not s["main"] and s["parent"] is None]
    for name in sorted(os.listdir(tdir)):
        if name.startswith("worker-"):
            with open(os.path.join(tdir, name)) as fh:
                for line in fh:
                    s = json.loads(line)
                    (spans if s["parent"] is not None else roots).append(s)
    for s in roots:
        s["adopted"] = True
        enclosing = [h for h in hosts if h["start"] <= s["start"] <= h["end"]]
        if enclosing:  # else warm-up or floor work outside any pass
            host = max(enclosing, key=lambda h: h["start"])
            s["parent"], s["pass"] = host["id"], host["pass"]
            spans.append(s)
    return spans


def _uncovered(intervals: list, lo: float, hi: float) -> list:
    """The parts of [lo, hi] that no interval covers."""
    out, end = [], lo
    for a, b in sorted(intervals):
        if a > end:
            out.append((end, min(a, hi)))
        end = max(end, b)
        if end >= hi:
            return out
    out.append((end, hi))
    return out


def _overlap(free: list, a: float, b: float) -> float:
    return sum(max(0.0, min(b, y) - max(a, x)) for x, y in free)


def self_times(spans: list) -> dict:
    """{pass: {name: self seconds}}, each span's self time as the
    module docstring defines it."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    # top-level spans of other driver threads, with the share of their
    # wall time their thread was on the CPU
    threads = [
        (s["start"], s["end"], s["tcpu"] / max(s["end"] - s["start"], 1e-9))
        for s in spans
        if not s["worker"] and not s["main"] and s.get("adopted")
    ]
    out: dict = {}
    for s in spans:
        if s["pass"] is None:
            continue
        kids = children.get(s["id"], [])
        if s["worker"]:
            own = s["cpu"]
        elif not s["main"]:
            own = s["tcpu"] - sum(k["tcpu"] for k in kids)
        else:
            free = _uncovered(
                [(k["start"], k["end"]) for k in kids if k["main"] or k["worker"]],
                s["start"], s["end"],
            )
            own = sum(b - a for a, b in free) - sum(
                rate * _overlap(free, a, b) for a, b, rate in threads
            )
        per = out.setdefault(s["pass"], {})
        per[s["name"]] = per.get(s["name"], 0.0) + own
    return out


def counts(spans: list) -> dict:
    """{pass: {"<layer>.<count>": total}}, the layer being the first
    part of the span name (``extract.batch`` counts ``docs`` as
    ``extract.docs``)."""
    out: dict = {}
    for s in spans:
        if s["pass"] is None:
            continue
        per = out.setdefault(s["pass"], {})
        for k, v in s["counts"].items():
            key = f"{s['name'].split('.')[0]}.{k}"
            per[key] = per.get(key, 0) + v
    return out
