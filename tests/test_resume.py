"""Checkpoint/resume semantics (FIXTURES.md §5): kill after K of P
partitions commit, resume, assert exactly-once output + byte identity.
"""

from __future__ import annotations

import os

import pytest

from textextract_ray.state import checkpoint


def test_kill_and_resume(ray_session, fixture_pages, tmp_path):
    from textextract_ray.pipelines.extract_pipeline import run_job
    from textextract_ray.sources import read_pages

    out = str(tmp_path / "job")
    # 4 shards, 1 shard per partition -> 4 partitions; die before #2
    with pytest.raises(RuntimeError, match="fault injection"):
        run_job(
            fixture_pages,
            out,
            shards_per_partition=1,
            fail_at_partition=2,
        )
    committed = checkpoint.load_manifests(out)
    assert len(committed) == 2

    # resume: completes the remaining partitions, skips the committed two
    report = run_job(fixture_pages, out, shards_per_partition=1)
    assert len(report) == 4
    manifests = checkpoint.load_manifests(out)
    assert [m["partition_id"] for m in manifests] == [0, 1, 2, 3]
    assert all(m["extractor_version"] == "1.0.0" for m in manifests)

    # exactly-once: no duplicate urls across partition outputs
    full = read_pages([checkpoint.partition_dir(out, pid) for pid in range(4)]).to_pandas()
    # F9 cross-shard duplicates can survive per-partition dedup; identical
    # bytes -> identical rows, so global uniqueness is on (url, text) pairs
    assert full.duplicated(subset=["url", "extracted_text"]).sum() == len(full) - full["url"].nunique()
    counts = full.groupby("url").size()
    # within one partition a url appears at most once
    per_part_rows = sum(m["counters"]["docs"] for m in manifests)
    assert per_part_rows == len(full)


def test_stale_version_forces_rerun(tmp_path):
    out = str(tmp_path / "job2")
    os.makedirs(out)
    checkpoint.commit_partition(
        out, 0, input_shards=["s0"], row_range=None, counters={"docs": 1},
        extractor_version="0.9.9",
    )
    assert not checkpoint.is_committed(out, 0)  # current version is 1.0.0
    checkpoint.commit_partition(
        out, 1, input_shards=["s1"], row_range=None, counters={"docs": 1}
    )
    assert checkpoint.is_committed(out, 1)


def test_uncommitted_partial_cleaned(tmp_path):
    out = str(tmp_path / "job3")
    pdir = checkpoint.partition_dir(out, 0)
    os.makedirs(pdir)
    with open(os.path.join(pdir, "partial.parquet"), "w") as f:
        f.write("junk")
    checkpoint.clean_uncommitted(out, 0)
    assert not os.path.exists(pdir)


def test_counters_in_manifest(ray_session, fixture_pages, tmp_path):
    from textextract_ray.pipelines.extract_pipeline import run_job

    out = str(tmp_path / "job4")
    report = run_job(fixture_pages, out, shards_per_partition=4)
    assert len(report) == 1
    row = report.iloc[0]
    assert row["docs"] > 0
    assert row["bytes_in"] > 0
    assert row["ok_count"] + row["empty_count"] + row["invalid_count"] + row[
        "unsupported_count"
    ] + row["parse_failures"] <= row["docs"] + 1
    assert row["parse_failures"] == 0


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
    cross-shard duplicates collapse even though extraction never does a
    corpus-wide shuffle."""
    from textextract_ray.pipelines.extract_pipeline import (
        partition_pages_by_url,
        run_job,
    )
    from textextract_ray.sources import read_pages

    buckets, stats = partition_pages_by_url(
        fixture_pages, str(tmp_path / "layout"), num_buckets=5
    )
    assert len(buckets) == 5
    assert stats["rows"].sum() == 200

    report = run_job(buckets, str(tmp_path / "out"), shards_per_partition=1)
    assert len(report) == 5
    full = read_pages(
        [str(tmp_path / "out" / f"part-{i:05d}") for i in range(5)]
    ).to_pandas()
    # global exactness: one output row per unique url across ALL partitions
    assert full["url"].is_unique
    assert full["url"].nunique() == 184  # 200 rows - 16 F9 duplicates


def test_auto_partition_sizing_and_lineage_guard(ray_session, fixture_pages, tmp_path):
    """shards_per_partition=None sizes partitions from footers+CPUs;
    a resume keeps the manifest sizing; a mismatched re-size fails
    loudly instead of mis-attaching output to the wrong shards."""
    import pytest

    from textextract_ray.pipelines.extract_pipeline import (
        _auto_shards_per_partition,
        run_job,
    )

    spp = _auto_shards_per_partition(fixture_pages)
    assert 1 <= spp <= len(fixture_pages)

    out = str(tmp_path / "autojob")
    rep = run_job(fixture_pages, out, shards_per_partition=None)
    expected_parts = -(-len(fixture_pages) // spp)  # ceil
    assert len(rep) == expected_parts

    # resume with auto sizing is a no-op that keeps the original layout
    rep2 = run_job(fixture_pages, out, shards_per_partition=None)
    assert len(rep2) == expected_parts

    # explicit re-size against existing manifests must fail loudly
    if spp != 1:
        with pytest.raises(ValueError, match="lineage"):
            run_job(fixture_pages, out, shards_per_partition=1)


def test_uri_filesystem_job_e2e(ray_session, fixture_pages, tmp_path):
    """The whole resumable job over a URI-based path (file:// through
    fsspec): shard inputs as URIs, output dir as a URI, kill/resume,
    manifest commit, metrics sink, no-op rerun. Pins that the
    remote-storage story (checkpoint._fs_for + Ray URI reads/writes)
    is exercised, not theoretical."""
    from textextract_ray.pipelines.extract_pipeline import run_job
    from textextract_ray.sources import read_pages

    uri_shards = [f"file://{p}" for p in fixture_pages]
    out_local = str(tmp_path / "urijob")
    out = f"file://{out_local}"

    with pytest.raises(RuntimeError, match="fault injection"):
        run_job(
            uri_shards,
            out,
            shards_per_partition=2,
            fail_at_partition=1,
        )
    assert len(checkpoint.load_manifests(out)) == 1

    report = run_job(uri_shards, out, shards_per_partition=2)
    assert len(report) == 2
    # manifests + metrics actually landed on disk under the stripped path
    assert sorted(os.listdir(os.path.join(out_local, "_manifests"))) == [
        "part-00000.json",
        "part-00001.json",
    ]
    assert os.path.exists(os.path.join(out_local, "_metrics", "counters.parquet"))
    # data readable back through the URI
    n = read_pages([checkpoint.partition_dir(out, pid) for pid in range(2)]).count()
    assert n == sum(m["counters"]["docs"] for m in checkpoint.load_manifests(out))
    # no-op rerun over the URI path
    report2 = run_job(uri_shards, out, shards_per_partition=2)
    assert len(report2) == 2


def test_transient_commit_error_retries(ray_session, fixture_pages, tmp_path, monkeypatch):
    """A transient fs error during verify/commit recovers via the retry
    ladder (3 attempts, backoff — reference write-verify sink,
    src/clipboard.py:20-44) without losing exactly-once semantics; a
    non-transient error still fails the job fast."""
    from textextract_ray.pipelines import extract_pipeline as ep
    from textextract_ray.state import checkpoint as cp

    out = str(tmp_path / "jobretry")
    real_commit = cp.commit_partition
    fails = {"left": 2}  # first two attempts hiccup, third succeeds

    def flaky_commit(*args, **kwargs):
        if fails["left"] > 0:
            fails["left"] -= 1
            raise OSError("injected transient fs error")
        return real_commit(*args, **kwargs)

    monkeypatch.setattr(ep.checkpoint, "commit_partition", flaky_commit)
    report = ep.run_job(fixture_pages, out, shards_per_partition=2)
    assert fails["left"] == 0  # the injection actually fired
    manifests = checkpoint.load_manifests(out)
    assert len(manifests) == len(report) == 2
    # exactly-once: rerun on the complete output is a no-op
    again = ep.run_job(fixture_pages, out, shards_per_partition=2)
    assert len(again) == 2

    # non-transient (ValueError) fails fast — no retry loop
    out2 = str(tmp_path / "jobfail")
    calls = {"n": 0}

    def broken_commit(*args, **kwargs):
        calls["n"] += 1
        raise ValueError("bad manifest payload")

    monkeypatch.setattr(ep.checkpoint, "commit_partition", broken_commit)
    with pytest.raises(RuntimeError, match="verify/commit failed"):
        ep.run_job(fixture_pages, out2, shards_per_partition=4)
    assert calls["n"] == 1


def test_multi_kill_resume_fuzz(ray_session, tmp_path):
    """Randomized multi-kill schedules over BOTH job paths: a resumed
    run must equal a clean run at the same partitioning byte-for-byte,
    and the versioned table must stay exactly-once per url (its row
    set is partition-invariant; the manifest path's dedup scope is
    per-partition by design)."""
    import glob
    import random


    import pandas as pd
    import pyarrow.parquet as pq

    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines.extract_pipeline import (
        run_job,
        run_job_versioned,
    )
    from textextract_ray.pipelines.tablelog import read_table_at

    files = generate_pages(str(tmp_path / "pages"), 240, 6, giant_bytes=1 << 15)

    def read_out(out_dir):
        parts = sorted(glob.glob(out_dir + "/part-*/*.parquet"))
        df = pd.concat(
            [pq.read_table(p).to_pandas() for p in parts], ignore_index=True
        )
        return (
            df[["url", "extracted_text"]]
            .sort_values(["url", "extracted_text"])
            .reset_index(drop=True)
        )

    def read_tbl(tdir):
        return (
            read_table_at(tdir)
            .to_pandas()[["url", "extracted_text"]]
            .sort_values(["url", "extracted_text"])
            .reset_index(drop=True)
        )

    refs: dict = {}

    def ref_for(mode, spp):
        # clean-run reference is a pure function of (mode, spp)
        if (mode, spp) not in refs:
            ref_dir = str(tmp_path / f"ref-{mode}-{spp}")
            if mode == "manifest":
                run_job(files, ref_dir, shards_per_partition=spp)
                r = read_out(ref_dir)
            else:
                run_job_versioned(files, ref_dir, shards_per_partition=spp)
                r = read_tbl(ref_dir)
                assert r["url"].is_unique
            refs[(mode, spp)] = r
        return refs[(mode, spp)]

    for seed in (0, 1):
        rng = random.Random(seed)
        spp = rng.choice([2, 3])
        n_parts = (6 + spp - 1) // spp
        kills = sorted(
            rng.sample(range(1, n_parts), k=1), reverse=True
        )
        for mode in ("manifest", "table"):
            out = str(tmp_path / f"{mode}-{seed}")
            ref = ref_for(mode, spp)
            for k in kills:
                with pytest.raises(RuntimeError):
                    if mode == "manifest":
                        run_job(
                            files, out, shards_per_partition=spp,
                            fail_at_partition=k,
                        )
                    else:
                        run_job_versioned(
                            files, out, shards_per_partition=spp,
                            fail_at_partition=k,
                        )
            if mode == "manifest":
                run_job(files, out, shards_per_partition=spp)
                got = read_out(out)
            else:
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
