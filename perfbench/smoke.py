"""Smoke test of the benchmark.

    python3 perfbench/smoke.py               # smallest size, about 5 minutes
    python3 perfbench/smoke.py --size full   # measured size, plus the layer split, about 6 minutes

Run from the repo root. For every workload in BENCHMARK.json it runs the
benchmark untraced and traced and checks that stdout is one JSON line
with every metric BENCHMARK.json names, in its unit, and that no
operation failed. At the full size it also checks the split the
workloads were built for: the parser is the largest layer of
crawl_extract, the commit layers outweigh it on recrawl_versioned, and
query_mix calls no extraction layer. Last, it checks that the benchmark
refuses to run, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

TIMEOUT_S = 180


def run_bench(spec: dict, workload: str, trace: int, size: str, cwd: str = ".") -> subprocess.CompletedProcess:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1" if size == "smoke" else
        str(spec["run_seconds"]), "--trace", str(trace), "--size", size,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int, proc) -> tuple:
    key = "per_layer" if trace else "end_to_end"
    errors = []
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 1:
        return None, [f"exit {proc.returncode}, {len(lines)} stdout lines; stderr tail:\n"
                      + proc.stderr[-1500:]]
    res = json.loads(lines[0])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        errors.append(f"metrics differ from BENCHMARK.json {key}: "
                      f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                      f"units {[k for k in want if k in got and got[k] != want[k]]}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        errors.append(f"correct={res['correct']} failed={res['failed']} attempted={res['attempted']}")
    if not trace:
        zero = [k for k, v in res["metrics"].items() if not v["value"] > 0]
        if zero:
            errors.append(f"end-to-end metrics not above 0: {zero}")
    return res, errors


def split_errors(workload: str, metrics: dict) -> list:
    """The traced run must show the layer split the workload was built for."""
    v = {k: m["value"] for k, m in metrics.items()}
    layers = {k: m["value"] for k, m in metrics.items() if m["unit"] == "s"
              and k not in ("unattributed_s", "trace.wall_s", "ray_data.identity_s")}
    if workload == "crawl_extract":
        top = max(layers, key=layers.get)
        if top != "extract.batch_s":
            return [f"largest layer is {top}, not extract.batch_s"]
    elif workload == "recrawl_versioned":
        commit = v["dedup.s"] + v["metrics.counters_s"] + sum(
            x for k, x in layers.items() if k.startswith("tablelog.")
        )
        if not commit > v["extract.batch_s"]:
            return [f"commit layers {commit:.3f} s do not exceed extract.batch_s {v['extract.batch_s']:.3f} s"]
    elif workload == "query_mix":
        used = [k for k in v if k.startswith(("extract.", "sources.", "schemas.")) and v[k]]
        if used:
            return [f"query_mix reached extraction layers: {used}"]
    return []


def bare_dir_errors(spec: dict) -> list:
    """Benchmark files alone, without the program: must fail fast."""
    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(p, os.path.join(bare, p), ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(spec, spec["workloads"][0]["name"], 0, "smoke", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", default="smoke", choices=("smoke", "full"))
    size = ap.parse_args().size
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            res, errors = check_result(spec, w["name"], trace, run_bench(spec, w["name"], trace, size))
            if res is not None and trace and size == "full":
                errors += split_errors(w["name"], res["metrics"])
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {w['name']} trace={trace}", *errors, sep="\n  ")
    errors = bare_dir_errors(spec)
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} bare directory refused", *errors, sep="\n  ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
