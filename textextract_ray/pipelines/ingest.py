"""Incremental ingest: extract only never-before-seen urls.

The production shape for a recurring crawl drop: each increment
(a batch of new WARC-derived shards) streams through the same
validate → extract pipeline, but urls already extracted by ANY earlier
increment are dropped up front via the sharded seen-url index
(state/seen_index.py — the one raw-actor component). Each increment
commits as its own checkpoint partition, so a killed ingest resumes
and the index is rebuilt from committed output (never trusted blindly
across process restarts).
"""

from __future__ import annotations

import pandas as pd

from ..sources import read_pages
from ..state import checkpoint
from ..state.seen_index import SeenUrlIndex, streaming_dedup
from ..stages.metrics import aggregate_counters, counters_report
from .extract_pipeline import extract_dataset


def rebuild_index(out_dir: str, index: SeenUrlIndex) -> int:
    """Warm the index from already-committed partitions (restart path):
    ONE streaming pass over the url columns of all valid prior output.

    Only manifests whose extractor_version matches count — a stale-
    version partition will be re-extracted by ingest_increment, so its
    urls must NOT be pre-claimed (claiming them would make the re-run
    commit an empty partition and silently lose the data). Partitions
    whose data directory is missing (crash between clean_uncommitted
    and commit) are skipped the same way — they re-run."""
    import os

    pdirs = []
    n_valid = 0
    for m in checkpoint.load_manifests(out_dir):
        pid = m["partition_id"]
        if not checkpoint.is_committed(out_dir, pid):
            continue  # stale version -> will be re-extracted
        pdir = checkpoint.partition_dir(out_dir, pid)
        if not os.path.isdir(pdir):
            continue  # crash window artifact -> will be re-extracted
        pdirs.append(pdir)
        n_valid += 1
    if pdirs:
        urls_ds = read_pages(pdirs, columns=["url"])
        streaming_dedup(urls_ds, index, run_id="rebuild").count()  # populate shards
    return n_valid


def ingest_increment(
    shard_files: list,
    out_dir: str,
    index: SeenUrlIndex,
    *,
    increment_id: int,
    batch_size: int = 64,
) -> dict:
    """Process one increment: drop seen urls, extract the rest, commit
    as partition ``increment_id``. Returns the increment's counters."""
    if checkpoint.is_committed(out_dir, increment_id):
        m = [
            x
            for x in checkpoint.load_manifests(out_dir)
            if x["partition_id"] == increment_id
        ][0]
        if list(m["input_shards"]) != list(shard_files):
            raise ValueError(
                f"increment {increment_id} already committed from different "
                f"input shards {m['input_shards']!r}; refusing to skip "
                f"{shard_files!r} — pass a consistent increments list "
                f"(ids are positional lineage)"
            )
        return m["counters"]
    checkpoint.clean_uncommitted(out_dir, increment_id)
    ds = read_pages(shard_files)
    # materialize: the claim stage is side-effecting. Pinning its output
    # blocks in the object store runs the claims exactly once per
    # increment, whatever Ray fuses or retries downstream: a
    # transient-error retry of an extract task re-reads the pinned
    # blocks instead of re-running claims (a re-run claim is safe only
    # while it presents a byte-identical batch — see streaming_dedup).
    # Blocks spill to disk if they outgrow memory.
    fresh = streaming_dedup(ds, index, run_id=f"increment-{increment_id}").materialize()
    # no url dedup: the index already guarantees per-url uniqueness
    extracted = extract_dataset(fresh, batch_size=batch_size)
    pdir = checkpoint.partition_dir(out_dir, increment_id)
    extracted.write_parquet(pdir)
    from .extract_pipeline import _ensure_partition_dir

    _ensure_partition_dir(pdir)  # all-duplicate increment -> empty table
    counters = aggregate_counters(read_pages(pdir), increment_id)
    checkpoint.commit_partition(
        out_dir,
        increment_id,
        input_shards=shard_files,
        row_range=None,
        counters=counters,
    )
    return counters


def ingest_dumps_versioned(
    dumps: list,
    table_dir: str,
    *,
    key_col: str = "url",
    batch_size: int = 64,
) -> pd.DataFrame:
    """Latest-capture-wins incremental ingest over the versioned table
    (pipelines/tablelog): each ``(name, shard_files)`` dump extracts
    ONCE (fused path, within-dump url dedup) and commits as one atomic
    version — the first as an append, every later one as copy-on-write
    MERGE by ``key_col``, so a recrawled url's newest extraction
    supersedes the stored row while the pre-dump snapshot stays
    time-travelable. The complement of ``run_ingest``: that path is
    first-capture-wins (the seen-url index drops re-seen urls BEFORE
    extraction — cheapest when content is assumed stable); this path
    pays re-extraction for freshness and gets atomic versioned history.

    Idempotent per dump: the committing manifest is stamped
    ``note="dump:<name>"``, and a rerun skips any dump whose note is
    already in the history — a killed ingest resumes at the first
    uncommitted dump for the cost of manifest reads. Returns the table
    history (one row per version, the ingest report)."""
    from .extract_pipeline import extract_files
    from .tablelog import (
        _head_version,
        table_append,
        table_create,
        table_history,
        table_merge,
        table_notes,
    )

    if _head_version(table_dir) < 0:
        table_create(table_dir)
    # table_notes, not table_history: notes survive table_expire, so a
    # resume after retention GC can never re-merge a stale old dump
    # over newer captures
    done = table_notes(table_dir)
    for name, shard_files in dumps:
        note = f"dump:{name}"
        if note in done:
            continue
        extracted = extract_files(shard_files, batch_size=batch_size)
        # bloom sidecars, not just [min,max] stats: url keys are
        # hash-distributed, so every file spans the whole key range and
        # range stats alone would make each recrawl merge rewrite the
        # entire table — the sidecar probe keeps merges proportional to
        # the files actually touched
        if _head_version(table_dir) == 0:
            table_append(
                table_dir, extracted, stats_cols=[key_col], note=note,
                bloom_key=key_col,
            )
        else:
            table_merge(
                table_dir, extracted, key_col, stats_cols=[key_col], note=note,
                bloom_key=key_col,
            )
        done.add(note)
    return table_history(table_dir)


def run_ingest(increments: list, out_dir: str, *, num_index_shards: int = 8) -> pd.DataFrame:
    """Drive a sequence of increments (list of shard-file lists) through
    one shared index; resumable per increment."""
    index = SeenUrlIndex(num_shards=num_index_shards)
    rebuild_index(out_dir, index)
    rows = [
        ingest_increment(files, out_dir, index, increment_id=i)
        for i, files in enumerate(increments)
    ]
    return counters_report(rows)
