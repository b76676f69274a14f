"""Input validation / normalization stage (SURVEY.md M1/M3/M6/M7).

The reference rejects selections < 5x5 px before ever calling the
extractor (src/ocr.py:129-141) and records failures instead of raising
(api_routes.py:134-152). Here: a stateless, fully vectorized
``map_batches`` kernel that annotates each page row with its size and a
pre-classification — rows are FLAGGED, never dropped, so the output
table always accounts for every input row (status-column policy).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..oracle import MIN_HTML_BYTES


def annotate_batch(batch: pa.Table) -> pa.Table:
    """Add ``html_size`` (bytes) and ``precheck`` columns.

    precheck ∈ {ok, invalid}: 'invalid' = empty/undersized html (the
    5x5-px analogue). Non-HTML magic numbers are cheap to detect but are
    left to the extractor so the policy lives in exactly one place.
    """
    # fill_null(0): a null html must flow through as an invalid-sized
    # row — a null size would otherwise null out any mask built on it
    # and silently DROP the row from a filter
    size = pc.fill_null(pc.binary_length(batch["html"]).cast(pa.int64()), 0)
    invalid = pc.less(size, MIN_HTML_BYTES)
    precheck = pc.if_else(invalid, pa.scalar("invalid"), pa.scalar("ok"))
    out = batch.append_column("html_size", size)
    return out.append_column("precheck", precheck)


def denylist_filter(ds, denied_hosts):
    """Broadcast-blocklist filter (A4: the revoked-token set,
    backend/auth.py:33, as a url-host denylist): the set is put in the
    object store ONCE and probed per batch with a vectorized is_in on
    the parsed host — never re-shipped per batch, no shuffle."""
    import ray

    from ..functions.scalar import url_host

    denied = pa.array(sorted(set(denied_hosts)), pa.string())
    ref = ray.put(denied)

    def keep(batch: pa.Table) -> pa.Table:
        hosts = url_host(batch["url"])
        mask = pc.invert(pc.is_in(hosts, value_set=ray.get(ref)))
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
