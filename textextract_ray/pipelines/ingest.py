"""Incremental ingest over the versioned table: each crawl dump
commits as one table version, merged by url, so a recrawled url's
newest capture wins and every earlier snapshot stays readable."""

from __future__ import annotations

import pandas as pd


def ingest_dumps_versioned(dumps: list, table_dir: str) -> pd.DataFrame:
    """Latest-capture-wins incremental ingest over the versioned table
    (pipelines/tablelog): each ``(name, shard_files)`` dump extracts
    ONCE (fused path, within-dump url dedup) and commits as one atomic
    version — the first as an append, every later one as copy-on-write
    MERGE by url, so a recrawled url's newest extraction supersedes the
    stored row while the pre-dump snapshot stays time-travelable.

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
        extracted = extract_files(shard_files)
        # bloom sidecars, not just [min,max] stats: url keys are
        # hash-distributed, so every file spans the whole key range and
        # range stats alone would make each recrawl merge rewrite the
        # entire table — the sidecar probe keeps merges proportional to
        # the files actually touched
        if _head_version(table_dir) == 0:
            table_append(
                table_dir, extracted, stats_cols=["url"], note=note,
                bloom_key="url",
            )
        else:
            table_merge(
                table_dir, extracted, "url", stats_cols=["url"], note=note,
                bloom_key="url",
            )
        done.add(note)
    return table_history(table_dir)
