"""Budgeted driver-fold of per-block partial rows.

The engine-wide merge idiom: a scan emits aggregate-sized PARTIAL rows
(keys + sums / band keys / candidate ids) as one plain task per file or
block (``sources.scan_table`` / ``scan_blocks``); under a row budget
they fold on the driver, where one vectorized pandas pass replaces a
Ray all-to-all whose fixed overhead (~1 s per few hundred blocks,
SCALE.md round-4 audit) dwarfs aggregate-sized work. Past the budget
the caller runs its distributed arm over ``rd.from_arrow_refs`` of the
SAME refs, so nothing is scanned twice. Users: the relational fold
queries (q1/q3/usage_rollup/token_stats, and q3's broadcast-key
budgets), `stages.dedup` (exact dedup's loser scan, MinHash band rows,
`_bucketed_group_apply`), `stages.similarity._merge_topk`, and
`stages.metrics.aggregate_counters` (O(blocks) rows: its budget cannot
bind). `pipelines.extract_pipeline.dedup_by_url` folds its url-hash
partials itself, its arm decided up front from the row count.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray


def fold_partials(refs: list, *, budget_rows: int):
    """Fetch the partial tables behind ``refs`` in order and return
    them as one pandas frame — or None once their rows exceed
    ``budget_rows`` (the caller's cue to take its distributed arm over
    the same refs; no table past the one that crossed the budget is
    fetched). The fixed order keeps float sums of sums reproducible.
    Zero live rows folds to a columnless empty frame — callers must
    type their own empty result."""
    tables, rows = [], 0
    for ref in refs:
        t = ray.get(ref)
        tables.append(t)
        rows += t.num_rows
        if rows > budget_rows:
            return None
    live = [t for t in tables if t.num_rows]
    if not live:
        return pd.DataFrame()
    return pa.concat_tables(live).combine_chunks().to_pandas()
