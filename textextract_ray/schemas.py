"""Pinned Arrow schemas for every table that crosses a stage boundary.

The reference fixes its schemas in SQL DDL
(reference backend/database/migrations/create_tables.sql:2-47); at
10^12 rows we do the same with explicit ``pyarrow.Schema`` constants and
validate at stage boundaries instead of relying on inference.
"""

from __future__ import annotations

import pyarrow as pa

# Input table of Common-Crawl-style pages (BASELINE.json input_hint).
# ``html`` is raw bytes — Arrow binary is the native analogue of the
# reference's base64-PNG request payload (reference src/ocr.py:62-67);
# we drop the base64 hop entirely (zero-copy instead of wire encoding).
PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us", tz="UTC")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# Output of the extraction pipeline. One row per input row (pre-dedup);
# mirrors the reference's response body + api_requests provenance row
# (reference backend/routes/api_routes.py:126-132, create_tables.sql:19-33):
# text out, status, error, timing, request/response sizes.
EXTRACTED_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("extracted_text", pa.large_string()),
        pa.field(
            "spans",
            pa.list_(
                pa.struct(
                    [
                        pa.field("start", pa.int64()),
                        pa.field("end", pa.int64()),
                        pa.field("kind", pa.string()),
                    ]
                )
            ),
        ),
        pa.field("status", pa.string()),  # ok|empty|invalid|unsupported|parse_error|truncated
        pa.field("error", pa.string()),
        pa.field("processing_time_ms", pa.int64()),
        pa.field("request_size_bytes", pa.int64()),
        pa.field("response_size_bytes", pa.int64()),
        pa.field("extractor_version", pa.string()),
    ]
)

STATUSES = ("ok", "empty", "invalid", "unsupported", "parse_error", "truncated")

# Per-partition counters (the usage_stats daily-aggregate analogue,
# reference create_tables.sql:37-47 / models.py:397-425).
COUNTERS_SCHEMA = pa.schema(
    [
        pa.field("partition_id", pa.int32()),
        pa.field("docs", pa.int64()),
        pa.field("bytes_in", pa.int64()),
        pa.field("bytes_out", pa.int64()),
        pa.field("ok_count", pa.int64()),
        pa.field("empty_count", pa.int64()),
        pa.field("invalid_count", pa.int64()),
        pa.field("unsupported_count", pa.int64()),
        pa.field("parse_failures", pa.int64()),
        pa.field("processing_time_ms_total", pa.int64()),
    ]
)


def validate_table(table: pa.Table, schema: pa.Schema, *, where: str = "") -> pa.Table:
    """Cast ``table`` to ``schema`` (order + types); raise on mismatch.

    Explicit boundary validation replaces the reference's DB-enforced DDL.
    """
    try:
        return table.select(schema.names).cast(schema)
    except (KeyError, pa.ArrowInvalid, pa.ArrowTypeError) as exc:  # pragma: no cover
        raise ValueError(f"schema mismatch at {where or 'stage boundary'}: {exc}") from exc
