"""CLI surface smoke (subprocess — owns its own Ray session)."""

from __future__ import annotations

import json
import os
import subprocess
import sys


def test_cli_extract_and_report(tmp_path, fixture_pages):
    """`report --table` prints each committed job partition's meta:
    note, counters, input shards and extractor version."""
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    tdir = str(tmp_path / "tbl")
    r = subprocess.run(
        [
            sys.executable,
            "-m",
            "textextract_ray",
            "extract",
            "--input",
            os.path.dirname(fixture_pages[0]),
            "--table",
            tdir,
            "--shards-per-partition",
            "2",
        ],
        cwd="/root/repo",
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert "partition_id" in r.stdout

    r3 = subprocess.run(
        [sys.executable, "-m", "textextract_ray", "report", "--table", tdir],
        cwd="/root/repo", env=env, capture_output=True, text=True, timeout=60,
    )
    assert r3.returncode == 0, r3.stderr[-2000:]
    parts = json.loads(r3.stdout)
    assert [p["counters"]["partition_id"] for p in parts] == [0, 1]
    assert all(p["note"].startswith(f"job-part:{i}:") for i, p in enumerate(parts))
    assert all(p["extractor_version"] == "1.0.0" for p in parts)
    assert sorted(s for p in parts for s in p["input_shards"]) == sorted(fixture_pages)

    # a directory that holds no table: usage error
    r4 = subprocess.run(
        [sys.executable, "-m", "textextract_ray", "report", "--table",
         str(tmp_path / "none")],
        cwd="/root/repo", env=env, capture_output=True, text=True, timeout=60,
    )
    assert r4.returncode == 2 and "no job partitions" in r4.stderr


def test_cli_extract_table_mode(tmp_path, fixture_pages):
    """--table commits partitions into the versioned table log; a rerun
    is a note-based no-op; `table history` shows the job versions."""
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    tdir = str(tmp_path / "tbl")
    args = [
        sys.executable, "-m", "textextract_ray", "extract",
        "--input", os.path.dirname(fixture_pages[0]),
        "--table", tdir, "--shards-per-partition", "2",
    ]
    r = subprocess.run(args, cwd="/root/repo", env=env,
                       capture_output=True, text=True, timeout=240)
    assert r.returncode == 0, r.stderr[-2000:]
    assert "partition_id" in r.stdout
    h = subprocess.run(
        [sys.executable, "-m", "textextract_ray", "table", "history",
         "--table", tdir],
        cwd="/root/repo", env=env, capture_output=True, text=True, timeout=120,
    )
    assert h.returncode == 0, h.stderr[-2000:]
    assert "job-part:" in h.stdout
    # rerun: no new versions (note-based resume)
    r2 = subprocess.run(args, cwd="/root/repo", env=env,
                        capture_output=True, text=True, timeout=240)
    assert r2.returncode == 0, r2.stderr[-2000:]
    h2 = subprocess.run(
        [sys.executable, "-m", "textextract_ray", "table", "history",
         "--table", tdir],
        cwd="/root/repo", env=env, capture_output=True, text=True, timeout=120,
    )
    assert h2.stdout == h.stdout

    # no --table: clean usage error
    r3 = subprocess.run(
        [sys.executable, "-m", "textextract_ray", "extract", "--input",
         os.path.dirname(fixture_pages[0])],
        cwd="/root/repo", env=env, capture_output=True, text=True, timeout=60,
    )
    assert r3.returncode == 2 and "--table" in r3.stderr


def test_cli_extract_warc_directory(tmp_path, fixture_pages, ray_session):
    """A directory of ``.warc.gz`` shards is a valid --input (extract_files
    reads both formats): in --table mode it commits the same urls as the
    parquet directory of the same corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from textextract_ray.datagen import generate_warc
    from textextract_ray.pipelines.tablelog import read_table_at

    warc_dir = str(tmp_path / "warc")
    generate_warc(warc_dir, 200, 4, giant_bytes=1 << 18)
    tdir = str(tmp_path / "tbl")
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, "-m", "textextract_ray", "extract",
         "--input", warc_dir, "--table", tdir, "--shards-per-partition", "2"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=240,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    got = read_table_at(tdir, columns=["url"]).to_pandas()["url"]
    want = pa.concat_tables(pq.read_table(f, columns=["url"]) for f in fixture_pages)
    assert got.is_unique
    assert set(got) == set(want["url"].to_pylist())
