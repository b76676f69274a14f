"""Storage-layout helpers: the streaming group compaction behind
``table_compact``, the per-file Bloom sidecars behind merge and
point-lookup pruning, and key-range clustered write with
manifest-pruned reads."""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _frame(n=5000):
    return pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "host": [f"h{i % 97}.com" for i in range(n)],
            "text": [f"document body {i}" for i in range(n)],
        }
    )


@pytest.fixture()
def small_shards(ray_session, tmp_path):
    import ray.data as rd

    df = _frame()
    rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(
        40
    ).write_parquet(str(tmp_path / "small"))
    return df, str(tmp_path / "small")


def _shards(d):
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def test_compact_preserves_content_and_reduces_files(small_shards, tmp_path):
    import ray

    from textextract_ray.pipelines.storage import _compact_group

    df, small = small_shards
    paths = _shards(small)
    out = str(tmp_path / "compact.parquet")
    meta = ray.get(_compact_group.remote(paths, out, 1000))
    assert meta == {"path": out, "rows": len(df), "inputs": len(paths)}
    assert not os.path.exists(out + ".tmp")  # committed by rename
    back = pq.read_table(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(back, df)
    # row groups stream through at the requested size
    assert pq.ParquetFile(out).metadata.num_row_groups >= len(df) // 1000


def test_compact_deterministic_and_schema_guard(small_shards, tmp_path):
    import ray

    from textextract_ray.pipelines.storage import _compact_group

    df, small = small_shards
    paths = _shards(small)
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    ray.get([_compact_group.remote(paths, a, 1000), _compact_group.remote(paths, b, 1000)])
    assert pq.read_table(a).equals(pq.read_table(b))

    # a file with a different schema fails loudly, not silently
    alien = os.path.join(small, "zz-alien.parquet")
    pq.write_table(pa.table({"other": [1, 2, 3]}), alien)
    with pytest.raises(Exception, match="schema"):
        ray.get(_compact_group.remote(paths + [alien], str(tmp_path / "c.parquet"), 1000))


def test_clustered_write_prunes_reads(ray_session, tmp_path):
    import ray.data as rd

    from textextract_ray.pipelines.storage import (
        read_clustered,
        write_clustered,
    )

    df = _frame()
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(8)
    out = str(tmp_path / "clustered")
    man = write_clustered(ds, out, "doc_id", num_ranges=8)
    assert len(man) > 1  # boundaries actually split the space

    got = (
        read_clustered(out, lo=1000, hi=1500)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = df[(df["doc_id"] >= 1000) & (df["doc_id"] < 1500)].reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)
    read_n, total_n = read_clustered.last_pruning
    assert read_n < total_n  # the manifest actually pruned directories

    # unbounded read returns everything
    assert read_clustered(out).count() == len(df)
    # half-open bounds: lo only / hi only
    lo_only = read_clustered(out, lo=4900).to_pandas()
    assert sorted(lo_only["doc_id"]) == list(range(4900, 5000))
    hi_only = read_clustered(out, hi=100).to_pandas()
    assert sorted(hi_only["doc_id"]) == list(range(0, 100))


def test_clustered_string_keys_and_nulls(ray_session, tmp_path):
    import ray.data as rd

    from textextract_ray.pipelines.storage import (
        read_clustered,
        write_clustered,
    )

    df = _frame(2000)
    df.loc[::100, "host"] = None  # null keys land in range 0, excluded by bounds
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(4)
    out = str(tmp_path / "byhost")
    write_clustered(ds, out, "host", num_ranges=6)

    got = read_clustered(out, lo="h20.com", hi="h40.com").to_pandas()
    want = df[(df["host"] >= "h20.com") & (df["host"] < "h40.com")]
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])
    assert got["host"].notna().all()

    # full read keeps the null-key rows
    assert read_clustered(out).count() == len(df)


def test_bloom_index_prunes_point_lookups(ray_session, tmp_path):
    import ray
    import ray.data as rd

    from textextract_ray.pipelines.storage import _probe_blooms, _shard_bloom

    df = _frame(8000)
    layout = str(tmp_path / "plain")
    # un-clustered layout: doc_ids scattered across 32 shards
    rd.from_arrow(
        pa.Table.from_pandas(
            df.sample(frac=1.0, random_state=7), preserve_index=False
        )
    ).repartition(32).write_parquet(layout)
    names = [os.path.basename(p) for p in _shards(layout)]

    def index(key_col, fpr):
        return ray.get(
            [_shard_bloom.remote(os.path.join(layout, n), n, key_col, fpr) for n in names]
        )

    def probe(rows, key_col, keys):
        return ray.get(_probe_blooms.remote(layout, rows, key_col, pa.array(keys)))

    man = index("doc_id", 0.001)
    assert [m["shard"] for m in man] == names
    assert sum(m["n_keys"] for m in man) == len(df)
    # sidecars exist next to every shard
    assert len(glob.glob(os.path.join(layout, "*.parquet.doc_id.bloom"))) == len(man)

    keys = [17, 4242, 7999]
    hits = probe(man, "doc_id", keys)
    # no false negatives: every shard holding a key is kept
    for k in keys:
        (owner,) = [
            n for n in names
            if k in pq.read_table(os.path.join(layout, n), columns=["doc_id"])["doc_id"].to_pylist()
        ]
        assert owner in hits
    # 3 keys in 32 shards at fpr 1e-3: expect a handful of shards opened
    assert 1 <= len(hits) <= 6

    # absent keys: every shard pruned (at most an FP shard)
    assert len(probe(man, "doc_id", [123456789])) <= 1

    # string key column: second index coexists with the first
    man2 = index("host", 0.01)
    assert all(m["n_keys"] > 0 for m in man2)
    hits2 = probe(man2, "host", ["h13.com"])
    n13 = sum(
        pq.read_table(os.path.join(layout, n), columns=["host"])["host"]
        .to_pylist().count("h13.com")
        for n in hits2
    )
    assert n13 == int((df["host"] == "h13.com").sum())


def test_clustered_layout_invariance(ray_session, tmp_path):
    """Boundaries come from the layout-invariant hash sample: the same
    rows in a different block layout produce the same manifest."""
    import ray.data as rd

    from textextract_ray.pipelines.storage import write_clustered

    df = _frame(3000)
    a = write_clustered(
        rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)),
        str(tmp_path / "a"),
        "doc_id",
        num_ranges=8,
    )
    b = write_clustered(
        rd.from_arrow(
            pa.Table.from_pandas(
                df.sample(frac=1.0, random_state=3), preserve_index=False
            )
        ).repartition(11),
        str(tmp_path / "b"),
        "doc_id",
        num_ranges=8,
    )
    assert a["lower_bound"].iloc[0] is None or np.isnan(a["lower_bound"].iloc[0])
    assert a["lower_bound"].tolist()[1:] == b["lower_bound"].tolist()[1:]
