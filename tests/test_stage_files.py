"""The table stage write: one plain task per block writes the block's
parquet file, returns its manifest row and writes its Bloom sidecar
from the in-memory key column. Its rows must be exactly what a footer
re-read (``_file_meta``) and a sidecar rebuild from the file
(``storage._shard_bloom``) give, for every block shape a caller can
hand in."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest

STATS = ["url", "n"]


def _source(n: int = 150) -> pa.Table:
    rng = np.random.default_rng(7)
    return pa.table(
        {
            "url": [f"https://h{int(rng.integers(1 << 30))}.test/{i}" for i in range(n)],
            "n": pa.array(rng.integers(-50, 50, n), pa.int64()),
            "text": [None if i % 11 == 0 else "x" * int(rng.integers(0, 40)) for i in range(n)],
        }
    )


def _dataset(case: str, src: pa.Table):
    import ray
    import ray.data as rd

    if case == "arrow":
        # a zero-row block with no columns, as a shuffle's empty
        # partition comes out, and one zero-row block with columns
        return rd.from_arrow_refs(
            [
                ray.put(src.slice(0, 60)),
                ray.put(pa.table({})),
                ray.put(src.slice(60, 0)),
                ray.put(src.slice(60)),
            ]
        )
    if case == "pandas":
        return rd.from_pandas([src.slice(0, 70).to_pandas(), src.slice(70).to_pandas()])
    if case == "lazy":
        # more blocks than stage tasks may be in flight on a 4-CPU session
        return rd.from_arrow(src).repartition(12).map_batches(
            lambda b: b, batch_format="pyarrow"
        )
    assert case == "empty"
    return rd.from_arrow(src.slice(0, 0))


@pytest.mark.parametrize("case", ["arrow", "pandas", "lazy", "empty"])
def test_stage_rows_equal_footer_reread_and_bloom_rebuild(ray_session, tmp_path, case):
    import ray

    from textextract_ray.pipelines import tablelog as tl
    from textextract_ray.pipelines.storage import _shard_bloom

    src = _source()
    table = str(tmp_path / "t")
    tl.table_create(table)
    rows = tl._stage_files(table, _dataset(case, src), STATS, "tok", bloom_key="url")

    assert sum(r["rows"] for r in rows) == (0 if case == "empty" else src.num_rows)
    assert all(r["rows"] for r in rows)  # zero-row blocks stage no file
    paths = [os.path.join(table, r["path"]) for r in rows]
    staged = sorted(os.listdir(os.path.join(table, "data", "tok")))
    assert staged == sorted(
        f for p in paths for f in (os.path.basename(p), os.path.basename(p) + ".url.bloom")
    )
    if case == "empty":
        assert rows == []
    reread = ray.get(tl._file_meta.remote(paths, [r["path"] for r in rows], STATS))
    assert [{k: v for k, v in r.items() if k != "bloom"} for r in rows] == reread
    assert all(set(r["stats"]) == set(STATS) for r in rows)

    sidecars = [open(p + ".url.bloom", "rb").read() for p in paths]
    rebuilt = ray.get(
        [_shard_bloom.remote(p, r["path"], "url", tl._BLOOM_FPR) for p, r in zip(paths, rows)]
    )
    for p, r, m, before in zip(paths, rows, rebuilt, sidecars):
        assert r["bloom"] == {"key": "url", "path": r["path"] + ".url.bloom", "k": m["k"]}
        assert open(p + ".url.bloom", "rb").read() == before


@pytest.mark.parametrize("case", ["arrow", "pandas", "lazy", "empty"])
def test_staged_commit_reads_back_the_source(ray_session, tmp_path, case):
    """An append and a merge of the staged rows commit, and the head
    reads back exactly the source rows; an empty dataset commits an
    empty version."""
    import ray

    from textextract_ray.pipelines import tablelog as tl

    src = _source()
    table = str(tmp_path / "t")
    tl.table_create(table)
    assert tl.table_append(table, _dataset(case, src), stats_cols=STATS, bloom_key="url") == 1
    assert tl.table_merge(table, _dataset(case, src), "url", stats_cols=STATS, bloom_key="url") == 2

    want = src.slice(0, 0) if case == "empty" else src.sort_by("url")
    for version in (1, 2):
        blocks = ray.get(tl.read_table_at(table, version=version).to_arrow_refs())
        got = pa.concat_tables([b for b in blocks if b.num_rows] or [want.slice(0, 0)])
        got = got.select(want.column_names).sort_by("url")
        assert got.to_pydict() == want.to_pydict()
    if case == "empty":
        assert tl._read_manifest(table, 1)["files"] == []
