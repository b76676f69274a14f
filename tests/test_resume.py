"""Checkpoint/resume semantics of ``run_job_versioned`` (FIXTURES.md
§5): kill after K of P partitions commit, resume, assert exactly-once
output + byte identity.
"""

from __future__ import annotations

import pytest


def test_versioned_job_counters_equal_head_recount(
    ray_session, fixture_pages, tmp_path
):
    """A one-partition run_job_versioned job records in its manifest
    meta exactly the counters of the rows it committed."""
    import pyarrow as pa
    import ray

    from textextract_ray.pipelines.extract_pipeline import run_job_versioned
    from textextract_ray.pipelines.tablelog import (
        _head_version,
        _read_manifest,
        read_table_at,
    )
    from textextract_ray.stages.metrics import counter_totals

    t = str(tmp_path / "tbl")
    run_job_versioned(fixture_pages, t, shards_per_partition=len(fixture_pages))
    meta = _read_manifest(t, _head_version(t))["meta"]
    head = pa.concat_tables(ray.get(read_table_at(t).to_arrow_refs()))
    assert head.num_rows == 184
    assert meta["counters"] == {"partition_id": 0} | counter_totals(head)


def test_url_partitioned_layout_global_dedup(ray_session, fixture_pages, tmp_path):
    """Layout pass + partition-local dedup is GLOBALLY exact: F9
    cross-shard duplicates collapse inside their url bucket, so every
    partition commits only urls no other partition holds, with no
    corpus-wide shuffle."""
    from textextract_ray.pipelines.extract_pipeline import (
        partition_pages_by_url,
        run_job_versioned,
    )
    from textextract_ray.pipelines.tablelog import read_table_at

    buckets, stats = partition_pages_by_url(
        fixture_pages, str(tmp_path / "layout"), num_buckets=5
    )
    assert len(buckets) == 5
    assert stats["rows"].sum() == 200

    t = str(tmp_path / "tbl")
    report = run_job_versioned(buckets, t, shards_per_partition=1)
    assert len(report) == 5
    full = read_table_at(t, columns=["url"]).to_pandas()
    assert full["url"].is_unique
    assert len(full) == 184  # 200 rows - 16 F9 duplicates
    # the per-partition deduped counts add up to the head: no merge
    # replaced a row another partition committed
    assert int(report["docs"].sum()) == 184


def test_uri_filesystem_job_e2e(ray_session, fixture_pages, tmp_path):
    """The resumable job over file:// shard URIs (pyarrow filesystem
    resolution): kill, resume, no-op rerun; lineage keeps the URIs."""
    from textextract_ray.pipelines.extract_pipeline import (
        job_part_meta,
        run_job_versioned,
    )
    from textextract_ray.pipelines.tablelog import read_table_at, table_history

    uri_shards = [f"file://{p}" for p in fixture_pages]
    t = str(tmp_path / "urijob")
    with pytest.raises(RuntimeError, match="fault injection"):
        run_job_versioned(
            uri_shards, t, shards_per_partition=2, fail_at_partition=1
        )
    assert len(job_part_meta(t)) == 1

    report = run_job_versioned(uri_shards, t, shards_per_partition=2)
    assert len(report) == 2
    assert [m["input_shards"] for m in job_part_meta(t).values()] == [
        uri_shards[:2],
        uri_shards[2:],
    ]
    full = read_table_at(t, columns=["url"]).to_pandas()
    assert full["url"].is_unique and len(full) == 184
    # no-op rerun over the URI shards
    head = int(table_history(t)["version"].max())
    report2 = run_job_versioned(uri_shards, t, shards_per_partition=2)
    assert len(report2) == 2
    assert int(table_history(t)["version"].max()) == head


def test_transient_commit_error_retries(ray_session, fixture_pages, tmp_path, monkeypatch):
    """A transient fs error (OSError) in a partition's table commit
    retries (3 attempts, backoff — reference write-verify sink,
    src/clipboard.py:20-44) and is counted in the manifest's
    ``meta["commit_retries"]``; an error raised after the manifest was
    published does not publish the partition again; a non-transient
    error still fails the job fast."""
    from textextract_ray.pipelines import tablelog
    from textextract_ray.pipelines.extract_pipeline import (
        job_part_meta,
        run_job_versioned,
    )
    from textextract_ray.pipelines.tablelog import read_table_at, table_history

    real_commit = tablelog._commit

    def is_job(manifest):
        return (manifest.get("note") or "").startswith("job-part:")

    def job_notes(t):
        return [n for n in table_history(t)["note"].dropna() if n.startswith("job-part:")]

    # two hiccups before the publish: partition 0 commits on its third try
    fails = {"left": 2}

    def flaky_commit(table_dir, version, manifest):
        if is_job(manifest) and fails["left"] > 0:
            fails["left"] -= 1
            raise OSError("injected transient fs error")
        return real_commit(table_dir, version, manifest)

    monkeypatch.setattr(tablelog, "_commit", flaky_commit)
    t = str(tmp_path / "pre")
    report = run_job_versioned(fixture_pages, t, shards_per_partition=2)
    assert fails["left"] == 0  # the injection actually fired
    assert len(report) == 2
    notes = job_notes(t)
    assert len(notes) == len(set(notes)) == 2
    assert [m["commit_retries"] for m in job_part_meta(t).values()] == [2, 0]
    # exactly-once: rerun on the complete table is a no-op
    head = int(table_history(t)["version"].max())
    run_job_versioned(fixture_pages, t, shards_per_partition=2)
    assert int(table_history(t)["version"].max()) == head

    # a hiccup AFTER the publish: the retry finds the partition's note
    # and commits no second version
    after = {"left": 1}

    def commit_then_fail(table_dir, version, manifest):
        real_commit(table_dir, version, manifest)
        if is_job(manifest) and after["left"] > 0:
            after["left"] -= 1
            raise OSError("injected fs error after the publish")

    monkeypatch.setattr(tablelog, "_commit", commit_then_fail)
    t2 = str(tmp_path / "post")
    run_job_versioned(fixture_pages, t2, shards_per_partition=2)
    assert after["left"] == 0
    notes = job_notes(t2)
    assert len(notes) == len(set(notes)) == 2
    assert int(table_history(t2)["version"].max()) == 2  # create + 2 parts
    full = read_table_at(t2, columns=["url"]).to_pandas()
    assert full["url"].is_unique and len(full) == 184

    # non-transient (ValueError) fails fast — no retry loop
    calls = {"n": 0}

    def broken_commit(table_dir, version, manifest):
        if not is_job(manifest):
            return real_commit(table_dir, version, manifest)
        calls["n"] += 1
        raise ValueError("bad manifest payload")

    monkeypatch.setattr(tablelog, "_commit", broken_commit)
    with pytest.raises(RuntimeError, match="partition 0 table commit failed"):
        run_job_versioned(
            fixture_pages, str(tmp_path / "fail"), shards_per_partition=4
        )
    assert calls["n"] == 1


def test_multi_kill_resume_fuzz(ray_session, tmp_path):
    """Randomized multi-kill schedules: a resumed run must equal a
    clean run at the same partitioning byte-for-byte, and the versioned
    table must stay exactly-once per url (its row set is
    partition-invariant)."""
    import random

    import pandas as pd

    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines.extract_pipeline import run_job_versioned
    from textextract_ray.pipelines.tablelog import read_table_at

    files = generate_pages(str(tmp_path / "pages"), 240, 6, giant_bytes=1 << 15)

    def read_tbl(tdir):
        return (
            read_table_at(tdir)
            .to_pandas()[["url", "extracted_text"]]
            .sort_values(["url", "extracted_text"])
            .reset_index(drop=True)
        )

    refs: dict = {}

    def ref_for(spp):
        # clean-run reference is a pure function of spp
        if spp not in refs:
            ref_dir = str(tmp_path / f"ref-table-{spp}")
            run_job_versioned(files, ref_dir, shards_per_partition=spp)
            r = read_tbl(ref_dir)
            assert r["url"].is_unique
            refs[spp] = r
        return refs[spp]

    for seed in (0, 1):
        rng = random.Random(seed)
        spp = rng.choice([2, 3])
        n_parts = (6 + spp - 1) // spp
        kills = sorted(
            rng.sample(range(1, n_parts), k=1), reverse=True
        )
        out = str(tmp_path / f"table-{seed}")
        ref = ref_for(spp)
        for k in kills:
            with pytest.raises(RuntimeError):
                run_job_versioned(
                    files, out, shards_per_partition=spp,
                    fail_at_partition=k,
                )
        run_job_versioned(files, out, shards_per_partition=spp)
        got = read_tbl(out)
        pd.testing.assert_frame_equal(got, ref)


def test_versioned_job_release_tag(ray_session, tmp_path):
    """run_job_versioned(tag=) pins the COMPLETED run's head as a
    named snapshot: a failed run does not tag, the completed resume
    does, and the pin survives retention GC of later versions."""
    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines.extract_pipeline import run_job_versioned
    from textextract_ray.pipelines.tablelog import (
        read_table_at,
        table_expire,
        table_tags,
    )

    files = generate_pages(str(tmp_path / "pages"), 120, 4, giant_bytes=1 << 14)
    t = str(tmp_path / "tbl")
    with pytest.raises(RuntimeError):
        run_job_versioned(
            files, t, shards_per_partition=2, fail_at_partition=1,
            tag="rel-1",
        )
    assert "rel-1" not in table_tags(t)  # failed runs never stamp
    run_job_versioned(files, t, shards_per_partition=2, tag="rel-1")
    tags = table_tags(t)
    assert "rel-1" in tags
    pinned = read_table_at(t, tag="rel-1").to_pandas()
    assert pinned["url"].is_unique and len(pinned) > 0
    # the pin survives retention of everything after it (a takedown
    # delete creates the later version)
    import pandas as pd

    from textextract_ray.pipelines.tablelog import table_delete_keys

    table_delete_keys(t, "url", [pinned["url"].iloc[0]])
    table_expire(t, keep_last=1, orphan_grace_seconds=0)
    again = read_table_at(t, tag="rel-1").to_pandas()
    pd.testing.assert_frame_equal(
        pinned.sort_values("url").reset_index(drop=True),
        again.sort_values("url").reset_index(drop=True),
    )


def test_versioned_job_bad_tag_fails_fast(ray_session, tmp_path):
    """An invalid release-tag name fails BEFORE any extraction work."""
    from textextract_ray.pipelines.extract_pipeline import run_job_versioned

    with pytest.raises(ValueError, match="invalid tag name"):
        run_job_versioned(
            ["/nonexistent/shard.parquet"],  # never touched
            str(tmp_path / "tbl"),
            tag="v1/rc1",
        )
