"""Fused read+extract over URI/object-store shards (VERDICT round-4
rank-1 item + item 5): ``extract_files`` opens each shard worker-side
through ``sources.open_shard``, so the zero-plasma fused data motion
holds on the storage layout a 100-TB cluster actually uses.

Two URI arms are exercised offline:
- ``file://`` — pyarrow-native filesystem resolution;
- ``local://`` — NOT a pyarrow scheme, so ``_fs_from_uri`` takes the
  fsspec fallback (``url_to_fs`` → ``PyFileSystem(FSSpecHandler(...))``),
  the exact route an object-store scheme without a native pyarrow
  driver takes (s3 via s3fs, gcs via gcsfs, ...).

Why not fsspec ``memory://``: its store is a class-level dict in the
DRIVER process; Ray tasks run in separate worker processes and would
see an empty filesystem. ``local://`` gives real cross-process
visibility while still driving the FSSpecHandler wrapper code path.
"""

from __future__ import annotations

import os

import pandas as pd
import pytest

DROP = ["processing_time_ms"]


def _norm(ds):
    df = ds.to_pandas().drop(columns=DROP).sort_values("url").reset_index(drop=True)
    df["spans"] = df["spans"].map(
        lambda s: tuple(tuple(sorted(d.items())) for d in s)
    )
    return df


@pytest.fixture(scope="module")
def small_pages(tmp_path_factory):
    from textextract_ray.datagen import generate_pages

    out = tmp_path_factory.mktemp("uri_pages")
    return generate_pages(str(out), 120, 3, giant_bytes=1 << 16)


def test_fused_matches_dataset_path_uri(ray_session, small_pages):
    """extract_files over file:// and local:// (fsspec-fallback) shard
    lists is byte-identical to the plain local-path fused run AND to
    the unfused Dataset path."""
    from textextract_ray.pipelines.extract_pipeline import (
        dedup_by_url,
        extract_dataset,
        extract_files,
    )
    import ray.data as rd

    local = _norm(extract_files(small_pages, batch_size=32))
    via_file = _norm(
        extract_files(["file://" + p for p in small_pages], batch_size=32)
    )
    via_fsspec = _norm(
        extract_files(["local://" + p for p in small_pages], batch_size=32)
    )
    unfused = _norm(
        dedup_by_url(extract_dataset(rd.read_parquet(small_pages)))
    )
    pd.testing.assert_frame_equal(local, via_file)
    pd.testing.assert_frame_equal(local, via_fsspec)
    pd.testing.assert_frame_equal(local, unfused)


def test_uri_directory_expansion(ray_session, small_pages):
    """A URI directory expands through its scheme's filesystem and the
    listed entries keep the scheme (the worker must know which fs to
    open the shard through)."""
    from textextract_ray.pipelines.extract_pipeline import extract_files
    from textextract_ray.sources import expand_shards

    d = os.path.dirname(small_pages[0])
    for scheme in ("file://", "local://"):
        shards = expand_shards(scheme + d, (".parquet",))
        assert len(shards) == len(small_pages)
        assert all(s.startswith(scheme) for s in shards)
        assert extract_files(scheme + d, dedup=False).count() == 120


def test_fused_warc_uri(ray_session, tmp_path):
    """WARC shards stream through a URI filesystem handle inside the
    extract task — gzip decodes from the remote stream record-at-a-time
    (bounded heap), identical rows to the local-path run."""
    from textextract_ray.datagen import generate_warc
    from textextract_ray.pipelines.extract_pipeline import extract_files

    warcs = generate_warc(str(tmp_path / "warc"), 60, 2, giant_bytes=1 << 15)
    cols = ["url", "extracted_text", "status"]
    a = (
        extract_files(warcs, dedup=False)
        .to_pandas()[cols]
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        extract_files(["local://" + w for w in warcs], dedup=False)
        .to_pandas()[cols]
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert a.equals(b)


def test_run_job_uri_shards_e2e(ray_session, small_pages, tmp_path):
    """The resumable job over object-store-shaped (local://) input:
    read → fused extract → table commit, then a re-run skips every
    committed partition. This is the non-local branch of the shard path
    end-to-end (VERDICT item 5)."""
    from textextract_ray.pipelines.extract_pipeline import (
        job_part_meta,
        run_job_versioned,
    )
    from textextract_ray.pipelines.tablelog import table_history

    uris = ["local://" + p for p in small_pages]
    t = str(tmp_path / "job_uri")
    report = run_job_versioned(uris, t, shards_per_partition=2)
    assert int(report["docs"].sum()) > 0
    n_parts = (len(uris) + 1) // 2
    metas = list(job_part_meta(t).values())
    assert len(metas) == n_parts
    # each partition's meta records the URI lineage verbatim
    assert metas[0]["input_shards"] == uris[:2]
    # resume: identical stable counters, nothing re-extracted (no new
    # version; column order/timing cols legitimately vary between a
    # fresh count and a JSON-loaded one)
    head = int(table_history(t)["version"].max())
    report2 = run_job_versioned(uris, t, shards_per_partition=2)
    stable = ["partition_id", "docs", "bytes_in", "bytes_out", "ok_count"]
    pd.testing.assert_frame_equal(
        report[stable].reset_index(drop=True),
        report2[stable].reset_index(drop=True),
        check_dtype=False,
    )
    assert int(table_history(t)["version"].max()) == head


def test_run_job_auto_sizing_uri(ray_session, small_pages, tmp_path):
    """shards_per_partition=None sizes from parquet footers through
    open_shard — works on URI shard lists too."""
    from textextract_ray.pipelines.extract_pipeline import (
        _auto_shards_per_partition,
    )

    n_local = _auto_shards_per_partition(small_pages)
    n_uri = _auto_shards_per_partition(["local://" + p for p in small_pages])
    assert n_local == n_uri >= 1
