"""Counters / metering aggregation (reference usage_stats analogue).

The reference upserts one (user_id, date) row per request into
usage_stats (models.py:397-425) and derives monthly/period sums and
remaining quota from it (models.py:127-308). Here the same shapes are
computed as partial-aggregate-then-merge over the extraction output:
each batch emits ONE partial counter row, and the driver sums those
O(blocks) rows (``stages.fold.fold_partials``) — no groupby, no
all-to-all. ``pipelines.extract_pipeline.dedup_by_url(...,
partition_id=)`` takes the same partial rows inside its key scan, so a
job partition gets its counters without a pass of its own.
"""

from __future__ import annotations

import sys

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import COUNTERS_SCHEMA

# the summed counters, in schema order (everything but the partition id)
COUNTER_FIELDS = [f.name for f in COUNTERS_SCHEMA if f.name != "partition_id"]
# the extracted columns counter_totals reads
COUNTED_COLUMNS = [
    "status", "request_size_bytes", "response_size_bytes", "processing_time_ms"
]


def counter_totals(batch: pa.Table) -> dict:
    """The ``COUNTER_FIELDS`` totals of ``batch``'s rows."""
    status = batch["status"]

    def n(s: str) -> int:
        return int(pc.sum(pc.equal(status, s).cast(pa.int64())).as_py() or 0)

    def total(col: str) -> int:
        return int(pc.sum(batch[col]).as_py() or 0)

    return {
        "docs": batch.num_rows,
        "bytes_in": total("request_size_bytes"),
        "bytes_out": total("response_size_bytes"),
        "ok_count": n("ok"),
        "empty_count": n("empty"),
        "invalid_count": n("invalid"),
        "unsupported_count": n("unsupported"),
        "parse_failures": n("parse_error"),
        "processing_time_ms_total": total("processing_time_ms"),
    }


def partial_counters(partition_id: int):
    """Per-block kernel: one partial counters row per block."""

    def kernel(batch: pa.Table) -> pa.Table:
        row = {"partition_id": partition_id} | counter_totals(batch)
        return pa.Table.from_pydict(
            {k: [v] for k, v in row.items()}, schema=COUNTERS_SCHEMA
        )

    return kernel


def counters_dict(partition_id: int, totals) -> dict:
    """The counters dict of one partition from its totals in
    ``COUNTER_FIELDS`` order (the manifest ``counters`` / report row
    shape)."""
    return {"partition_id": partition_id} | {
        f: int(v) for f, v in zip(COUNTER_FIELDS, totals)
    }


def aggregate_counters(extracted_ds, partition_id: int) -> dict:
    """Counters dict for one partition (drives the manifest): one
    partial row per block (a plain task per block of the materialized
    Dataset), summed on the driver."""
    from ..sources import scan_blocks
    from .fold import fold_partials

    partials = scan_blocks(extracted_ds, partial_counters(partition_id))
    # O(blocks) rows: no budget can bind
    folded = fold_partials(partials, budget_rows=sys.maxsize)
    return counters_dict(
        partition_id,
        (folded[f].sum() if len(folded) else 0 for f in COUNTER_FIELDS),
    )


def counters_report(counters_rows: list) -> pd.DataFrame:
    """Final job report (the profile-assembly join J2 analogue,
    reference user_routes.py:11-44): per-partition counters + derived
    mean processing time and failure rate. Driver-side — the counters
    table is O(partitions), always small."""
    df = pd.DataFrame(counters_rows)
    if len(df):
        df["processing_time_ms_mean"] = df["processing_time_ms_total"] / df["docs"].clip(lower=1)
        df["failure_rate"] = df["parse_failures"] / df["docs"].clip(lower=1)
    return df.sort_values("partition_id").reset_index(drop=True) if len(df) else df
