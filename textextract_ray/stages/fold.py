"""Budgeted driver-fold of per-block partial rows.

The engine-wide merge idiom: upstream map_batches stages emit
aggregate-sized PARTIAL rows (keys + sums / band keys / candidate
ids); under a row budget those partials stream to the driver — where
one vectorized pandas pass replaces a Ray all-to-all whose fixed
overhead (~1 s per few hundred blocks, SCALE.md round-4 audit) dwarfs
aggregate-sized work — and past the budget the caller falls back to
the distributed groupby over the SAME partials lineage. Used by the
relational fold queries (q1/q3/usage_rollup/token_stats), exact text
dedup's keys-only loser scan and `_bucketed_group_apply`
(`stages.dedup`), and `stages.metrics.aggregate_counters`, which never
falls back: counters are O(blocks) rows, so it passes a budget that
cannot bind and its scan runs once. The url-hash key scan of
`pipelines.extract_pipeline.dedup_by_url` does not come here: its
driver arm runs one plain task per block of an already-materialized
partition, so it needs no Dataset execution to stream.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def fold_partials(ds, *, budget_rows: int, prefetch_batches: int = 16):
    """Stream ``ds``'s blocks to the driver and return one pandas
    frame — or None once the stream exceeds ``budget_rows`` (the
    caller's cue to take its distributed arm; the partial pass then
    re-executes there, the documented budget-idiom trade — a caller
    that can bound its partial rows up front avoids it by deciding the
    arm first). Zero live rows folds to a columnless empty frame —
    callers must type their own empty result. ``prefetch_batches``
    overlaps the per-block driver fetch latency (~10 ms serialized)
    with upstream execution."""
    tables, rows = [], 0
    for b in ds.iter_batches(
        batch_size=None, batch_format="pyarrow", prefetch_batches=prefetch_batches
    ):
        tables.append(b)
        rows += b.num_rows
        if rows > budget_rows:
            return None
    live = [t for t in tables if t.num_rows]
    if not live:
        return pd.DataFrame()
    return pa.concat_tables(live).combine_chunks().to_pandas()
