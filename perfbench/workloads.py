"""The three workloads. Each runs passes through the program's public
entry points, checks every pass's output against its oracle, and
reports per-pass quantities the runner turns into metrics.

crawl_extract      extract_files -> dedup_by_url -> write_parquet over a
                   page corpus whose bytes sit mostly in 128 KiB giants:
                   the parser (stages.extract / oracle) dominates and the
                   table log is not used.
recrawl_versioned  run_job_versioned over small pages, killed once with
                   fail_at_partition and resumed, then the head and the
                   pre-recrawl snapshot read back with read_table_at: the
                   commit side (dedup, counters, table-log append/merge/
                   Bloom) dominates and parsing is per-doc overhead.
query_mix          the seven bench.py queries, in a seed-permuted order,
                   over generated TPC-H-ish tables with the sizes and
                   value distributions of the sf0.1 test data:
                   relational and textops operators only, no parser.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np

from .inputs import QUERIES, _digest


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


def _digest_mismatches(expected: dict, tables) -> int:
    """Urls whose output differs from the oracle: missing, extra,
    emitted more than once, or with other text/status. ``tables`` is
    consumed one at a time, so only digests are held."""
    got: dict = {}
    bad = 0
    for t in tables:
        cols = (t[c].to_pylist() for c in ("url", "extracted_text", "status"))
        for u, text, status in zip(*cols):
            if u in got:
                bad += 1
            got[u] = _digest(text, status)
    bad += sum(got.get(u) != d for u, d in expected.items())
    bad += sum(u not in expected for u in got)
    if bad:
        print(f"perfbench: {bad} urls differ from the oracle", flush=True)
    return bad


class _Workload:
    def __init__(self, info: dict, work: str, tracer):
        self.info = info
        self.work = work
        self.tracer = tracer

    def _out(self, tag: str) -> str:
        path = os.path.join(self.work, "out", tag)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def warm(self, tag: str) -> None:
        """The first call a user makes, on small inputs: what set-up
        time measures besides Ray start-up. Cold costs it leaves (more
        workers, first use of other operators) fall on the first timed
        pass, which the median over passes absorbs."""
        raise NotImplementedError


class CrawlExtract(_Workload):
    def rows(self) -> int:
        return self.info["main"]["docs"]

    def warm(self, tag: str) -> None:
        self.run({"shards": self.info["warm"]["shards"][:1]}, tag)

    def run(self, inp: dict, tag: str):
        from textextract_ray.pipelines import extract_pipeline as ep

        out = self._out(tag)
        ds = ep.extract_files(inp["shards"], batch_size=64, dedup=False)
        ds = ep.dedup_by_url(ds)
        with self.tracer.span("write"):
            ds.write_parquet(out)
        return out

    def check(self, out: str) -> tuple:
        import pyarrow.parquet as pq

        with open(os.path.join(self.info["main"]["dir"], "expected.json")) as fh:
            expected = json.load(fh)
        files = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
        tables = (
            pq.read_table(os.path.join(out, f), columns=["url", "extracted_text", "status"])
            for f in files
        )
        return len(expected), _digest_mismatches(expected, tables)

    def space_amp(self, out: str) -> float:
        data = sum(
            os.path.getsize(os.path.join(out, f))
            for f in os.listdir(out)
            if f.endswith(".parquet")
        )
        return _dir_bytes(out) / data

    def layer_counts(self, out: str) -> dict:
        import pyarrow.parquet as pq

        files = [os.path.join(out, f) for f in os.listdir(out) if f.endswith(".parquet")]
        return {
            "write.bytes": sum(os.path.getsize(f) for f in files),
            "dedup.rows_out": sum(pq.read_metadata(f).num_rows for f in files),
        }


def _manifests(table: str) -> list:
    log = os.path.join(table, "_log")
    out = []
    for name in sorted(os.listdir(log)):
        if name.startswith("v") and name.endswith(".json"):
            with open(os.path.join(log, name)) as fh:
                out.append(json.load(fh))
    return out


def _snapshot_paths(manifest: dict) -> list:
    paths = []
    for f in manifest["files"]:
        paths.append(f["path"])
        if f.get("bloom"):
            paths.append(f["bloom"]["path"])
    return paths


class RecrawlVersioned(_Workload):
    """One pass: the job killed before the first recrawl partition, the
    resume, then two reads. Reads are timed through materialize() so
    the read work happens inside the span."""

    def rows(self) -> int:
        return self.info["main"]["docs"]

    def warm(self, tag: str) -> None:
        from textextract_ray.pipelines import extract_pipeline as ep
        from textextract_ray.pipelines import tablelog as tl

        inp = self.info["warm"]
        table = self._out(tag)
        ep.run_job_versioned(inp["shards"][: inp["spp"]], table, shards_per_partition=inp["spp"])
        tl.read_table_at(table).materialize()

    def run(self, inp: dict, tag: str):
        from textextract_ray.pipelines import extract_pipeline as ep
        from textextract_ray.pipelines import tablelog as tl

        table = self._out(tag)
        try:
            ep.run_job_versioned(
                inp["shards"], table, shards_per_partition=inp["spp"],
                fail_at_partition=inp["kill"],
            )
            raise RuntimeError("recrawl_versioned: the injected kill did not fire")
        except RuntimeError as exc:
            if "fault injection" not in str(exc):
                raise
        as_of = time.time()
        ep.run_job_versioned(inp["shards"], table, shards_per_partition=inp["spp"])
        cols = ["url", "extracted_text", "status"]
        with self.tracer.span("tablelog.read_head"):
            head = tl.read_table_at(table, columns=cols).materialize()
        with self.tracer.span("tablelog.read_asof"):
            old = tl.read_table_at(table, columns=cols, as_of=as_of).materialize()
        return table, head, old

    def check(self, res) -> tuple:
        _, head, old = res
        d = self.info["main"]["dir"]
        attempted = failed = 0
        for ds, name in ((head, "expected.json"), (old, "expected_asof.json")):
            with open(os.path.join(d, name)) as fh:
                expected = json.load(fh)
            tables = ds.iter_batches(batch_format="pyarrow", batch_size=None)
            attempted += len(expected)
            failed += _digest_mismatches(expected, tables)
        return attempted, failed

    def space_amp(self, res) -> float:
        table = res[0]
        head = _manifests(table)[-1]
        live = sum(os.path.getsize(os.path.join(table, p)) for p in _snapshot_paths(head))
        return _dir_bytes(table) / live

    def layer_counts(self, res) -> dict:
        table = res[0]
        rewritten = carried = rows_out = 0
        prev: set = set()
        for m in _manifests(table):
            paths = {f["path"] for f in m["files"]}
            if m["operation"] == "merge":
                carried += len(paths & prev)
                rewritten += sum("/rw-" in p for p in paths - prev)
            rows_out += sum(
                f["rows"] for f in m["files"]
                if f["path"] not in prev and "/rw-" not in f["path"]
            )
            prev = paths
        return {
            "tablelog.files_rewritten": rewritten,
            "tablelog.files_carried": carried,
            "tablelog.bytes_written": _dir_bytes(table),
            "dedup.rows_out": rows_out,
        }


class QueryMix(_Workload):
    def __init__(self, info: dict, work: str, tracer, seed: int):
        super().__init__(info, work, tracer)
        self.order = [QUERIES[i] for i in np.random.default_rng(seed).permutation(len(QUERIES))]
        self.first = None

    def rows(self) -> int:
        return self.info["main"]["rows"]

    def _query(self, name: str, tables: str):
        import __ray_entry__ as entry

        res = entry.queries()[name](tables)
        return res.to_pandas() if hasattr(res, "to_pandas") else res

    def warm(self, tag: str) -> None:
        self._query(QUERIES[0], self.info["warm"]["tables"])

    def run(self, inp: dict, tag: str):
        import __ray_entry__ as entry

        qs = entry.queries()
        out = {}
        for name in self.order:
            layer = qs[name].__module__.rsplit(".", 1)[-1]
            with self.tracer.span(f"{layer}.{name}"):
                out[name] = self._query(name, inp["tables"])
        return out

    def check(self, res: dict) -> tuple:
        """The first checked pass is compared with the oracle, every
        later pass with the first."""
        import pandas as pd
        from tools.check_queries import normalize

        failed = 0
        if self.first is None:
            d = os.path.join(self.info["main"]["dir"], "expected")
            ref = {q: normalize(pd.read_parquet(os.path.join(d, f"{q}.parquet"))) for q in QUERIES}
        else:
            ref = self.first
        got = {q: normalize(df) for q, df in res.items()}
        for q in QUERIES:
            if not _frames_equal(got[q], ref[q]):
                print(f"perfbench: query_mix: {q} differs from its oracle", flush=True)
                failed += 1
        if self.first is None:
            self.first = got
        return len(QUERIES), failed

    def space_amp(self, res) -> float:
        return 1.0  # keeps nothing on disk beyond its input tables

    def layer_counts(self, res) -> dict:
        return {}


def _frames_equal(a, b) -> bool:
    """Same columns, rows and values; floats to 1e-9 relative, as the
    repo's query gate compares them."""
    import pandas as pd

    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    for c in a.columns:
        x, y = a[c], b[c]
        if pd.api.types.is_float_dtype(x) or pd.api.types.is_float_dtype(y):
            if not np.isclose(x.astype(float), y.astype(float), rtol=1e-9,
                              atol=1e-9, equal_nan=True).all():
                return False
        elif not (x.astype(str).to_numpy() == y.astype(str).to_numpy()).all():
            return False
    return True


def make(workload: str, info: dict, work: str, tracer, seed: int):
    if workload == "crawl_extract":
        return CrawlExtract(info, work, tracer)
    if workload == "recrawl_versioned":
        return RecrawlVersioned(info, work, tracer)
    return QueryMix(info, work, tracer, seed)
