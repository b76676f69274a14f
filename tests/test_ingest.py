"""Incremental ingest: cross-increment dedup + restart index rebuild."""

from __future__ import annotations


def test_incremental_ingest(ray_session, fixture_pages, tmp_path):
    from textextract_ray.pipelines.ingest import run_ingest
    from textextract_ray.sources import read_pages

    out = str(tmp_path / "ingest")
    # increment 0: shards 0-1; increment 1: shards 1-3 (shard 1 repeats!)
    increments = [fixture_pages[0:2], fixture_pages[1:4]]
    report = run_ingest(increments, out)
    assert len(report) == 2

    full = read_pages([str(tmp_path / "ingest" / f"part-{i:05d}") for i in range(2)]).to_pandas()
    # every url extracted exactly once despite shard 1 arriving twice
    assert full["url"].is_unique
    # all unique urls across shards 0-3 are covered
    all_urls = set(read_pages(fixture_pages[0:4]).to_pandas()["url"])
    assert set(full["url"]) == all_urls


def test_ingest_restart_rebuilds_index(ray_session, fixture_pages, tmp_path):
    from textextract_ray.pipelines.ingest import (
        SeenUrlIndex,
        ingest_increment,
        rebuild_index,
    )
    from textextract_ray.sources import read_pages

    out = str(tmp_path / "ingest2")
    idx1 = SeenUrlIndex(num_shards=4)
    ingest_increment(fixture_pages[0:2], out, idx1, increment_id=0)

    # "process restart": fresh index, rebuilt from committed output
    idx2 = SeenUrlIndex(num_shards=4)
    n = rebuild_index(out, idx2)
    assert n == 1
    ingest_increment(fixture_pages[0:4], out, idx2, increment_id=1)
    full = read_pages([f"{out}/part-00000", f"{out}/part-00001"]).to_pandas()
    assert full["url"].is_unique


def test_fully_duplicate_increment_commits_empty(ray_session, fixture_pages, tmp_path):
    """An increment whose urls were ALL seen before must commit an
    empty partition instead of crashing (the re-crawl scenario)."""
    from textextract_ray.pipelines.ingest import SeenUrlIndex, ingest_increment
    from textextract_ray.state.checkpoint import is_committed

    out = str(tmp_path / "dupinc")
    idx = SeenUrlIndex(num_shards=2)
    ingest_increment(fixture_pages[0:2], out, idx, increment_id=0)
    # same shards again as increment 1: everything is a duplicate
    c = ingest_increment(fixture_pages[0:2], out, idx, increment_id=1)
    assert is_committed(out, 1)
    assert c["docs"] == 0


def test_rebuild_skips_stale_version_manifests(ray_session, fixture_pages, tmp_path):
    """A stale-version partition must NOT pre-claim its urls on restart
    — otherwise its re-extraction would commit empty and lose the data."""
    import json
    import os

    from textextract_ray.pipelines.ingest import (
        SeenUrlIndex,
        ingest_increment,
        rebuild_index,
    )
    from textextract_ray.sources import read_pages

    out = str(tmp_path / "verbump")
    idx = SeenUrlIndex(num_shards=2)
    ingest_increment(fixture_pages[0:2], out, idx, increment_id=0)
    n_rows_before = len(read_pages(f"{out}/part-00000").to_pandas())

    # simulate an extractor version bump: doctor the manifest version
    mpath = os.path.join(out, "_manifests", "part-00000.json")
    m = json.load(open(mpath))
    m["extractor_version"] = "0.9.0"
    json.dump(m, open(mpath, "w"))

    # restart: rebuild must claim NOTHING (stale partition re-runs)
    idx2 = SeenUrlIndex(num_shards=2)
    assert rebuild_index(out, idx2) == 0
    assert idx2.total_size() == 0
    # re-ingesting the same increment re-extracts the full data
    ingest_increment(fixture_pages[0:2], out, idx2, increment_id=0)
    assert len(read_pages(f"{out}/part-00000").to_pandas()) == n_rows_before


def test_ingest_refuses_shifted_increment_lineage(ray_session, fixture_pages, tmp_path):
    import pytest as _pytest

    from textextract_ray.pipelines.ingest import SeenUrlIndex, ingest_increment

    out = str(tmp_path / "lineage")
    idx = SeenUrlIndex(num_shards=2)
    ingest_increment(fixture_pages[0:2], out, idx, increment_id=0)
    with _pytest.raises(ValueError, match="different input shards"):
        ingest_increment(fixture_pages[2:4], out, idx, increment_id=0)
