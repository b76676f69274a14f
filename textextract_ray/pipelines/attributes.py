"""Dolma-style attribute store: tag once, filter many times.

The Dolma toolkit (Soldaini et al. 2024, arXiv:2402.00159) separates
*taggers* (compute per-document attributes into sidecar files keyed by
doc id) from *mixers* (filter/route documents by reading ONLY the
attribute files and applying cheap predicates). At 100 TB this split is
the difference between re-running quality/toxicity/lang models per
experiment and re-running a predicate over a table that is ~1% of
corpus bytes.

Ray-Data shape:
- ``tag_attributes_ds``: one streaming map_batches over the corpus;
  each tagger is a vectorized ``fn(batch) -> pa.Array`` so a batch
  pays ONE pass for all taggers. Write the result with
  ``write_parquet`` next to the corpus — that file IS the store.
- ``filter_by_attributes_ds``: evaluates the predicate on the
  ATTRIBUTE dataset only (cheap columns), reduces it to a doc-id
  verdict, and ships the SMALLER side (keep ids or drop ids) as one
  sorted-int64 broadcast (``ray.put``) that document batches probe
  with ``searchsorted`` — the corpus text never rides a shuffle. Past
  ``broadcast_budget_rows`` on BOTH sides it falls back to a doc-id
  co-group join (the one case where documents pay an all-to-all, and
  the predicate selectivity that causes it is reported in the raised
  guidance rather than silently paid — callers at that scale should
  partition corpus and attributes by the same id buckets and zip).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

ATTR_BROADCAST_BUDGET_ROWS = 50_000_000  # 8 B/id -> ~400 MB object


def tag_attributes_ds(docs, taggers: dict, *, id_col: str = "doc_id"):
    """corpus -> attribute table (id_col + one column per tagger).
    ``taggers`` maps column name -> vectorized ``fn(batch: pa.Table)
    -> pa.Array`` (length = batch rows). One streaming pass, zero
    shuffle; consume with ``write_parquet`` to create the store."""
    names = list(taggers)

    def kernel(batch: pa.Table) -> pa.Table:
        cols = {id_col: batch[id_col].cast(pa.int64())}
        for name in names:
            arr = taggers[name](batch)
            if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
                arr = pa.array(arr)
            if len(arr) != batch.num_rows:
                raise ValueError(
                    f"tagger {name!r} returned {len(arr)} values for a "
                    f"{batch.num_rows}-row batch"
                )
            cols[name] = arr
        return pa.table(cols)

    return docs.map_batches(kernel, batch_format="pyarrow", zero_copy_batch=True)


def filter_by_attributes_ds(
    docs,
    attrs,
    predicate,
    *,
    id_col: str = "doc_id",
    broadcast_budget_rows: int = ATTR_BROADCAST_BUDGET_ROWS,
    num_buckets: int = 64,
):
    """Keep the documents whose attribute row satisfies ``predicate``
    (a vectorized ``fn(batch: pa.Table) -> pa.BooleanArray`` evaluated
    on ATTRIBUTE batches). Documents with no attribute row are
    dropped — the store is authoritative, exactly like Dolma's mixer.

    Returns ``docs`` filtered, original schema untouched."""
    import ray
    import ray.data as rd

    def verdict(batch: pa.Table) -> pa.Table:
        keep = predicate(batch)
        if not isinstance(keep, (pa.Array, pa.ChunkedArray)):
            keep = pa.array(np.asarray(keep, dtype=bool))
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "_keep": pc.fill_null(keep, False),
            }
        )

    verdicts = attrs.map_batches(
        verdict, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    n_keep = verdicts.filter(expr="_keep").count()

    # the verdict must act as BOTH a predicate and a membership test
    # (docs absent from the store drop), so only the keep side can
    # broadcast — a drop-id set says nothing about absent ids
    if n_keep <= broadcast_budget_rows:
        ids = np.sort(
            np.concatenate(
                [
                    b[id_col].to_numpy(zero_copy_only=False)
                    for b in verdicts.filter(expr="_keep").iter_batches(
                        batch_size=65536, batch_format="pyarrow"
                    )
                ]
                or [np.empty(0, np.int64)]
            ).astype(np.int64)
        )
        ref = ray.put(ids)

        def keep_members(batch: pa.Table) -> pa.Table:
            members = ray.get(ref)
            bids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if not len(members):
                return batch.slice(0, 0)
            pos = np.searchsorted(members, bids)
            pos[pos == len(members)] = 0
            return batch.filter(pa.array(members[pos] == bids))

        return docs.map_batches(
            keep_members, batch_format="pyarrow", zero_copy_batch=True
        )

    # keep side past budget: doc-id-bucket co-group (documents pay
    # ONE all-to-all — the unavoidable join when neither verdict side
    # broadcasts; callers at this scale should bucket-align the store)
    from ..functions.scalar import stable_bucket

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].cast(pa.int64())
            out = {
                "_bucket": pa.array(
                    stable_bucket(ids, num_buckets), pa.int32()
                ),
                "_side": pa.array(np.full(len(ids), side, np.int8), pa.int8()),
            }
            for name in batch.column_names:
                out[name] = batch[name]
            return pa.table(out)

        return fn

    keep_ids = verdicts.filter(expr="_keep").drop_columns(["_keep"])
    tagged = docs.map_batches(tag(0), batch_format="pyarrow").union(
        keep_ids.map_batches(tag(1), batch_format="pyarrow")
    )

    doc_cols = [c for c in docs.schema().names]

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        members = set(df.loc[df["_side"] == 1, id_col].astype("int64"))
        rows = df[df["_side"] == 0]
        rows = rows[rows[id_col].astype("int64").isin(members)]
        return rows[doc_cols].reset_index(drop=True)

    return tagged.groupby("_bucket").map_groups(join_bucket, batch_format="pandas")


def standard_taggers(text_col: str = "text") -> dict:
    """The default tagger set a Dolma-style pipeline runs first over a
    text corpus: size, token count, heuristic language ID, and the
    zlib compression-ratio gibberish/repetition signal. All vectorized
    (compression ratio is one C call per doc); compose with
    ``tag_attributes_ds(docs, {**standard_taggers(), ...})``."""
    from ..functions.text import compression_ratio, lang_id, token_count

    def _text(b: pa.Table):
        return pc.fill_null(b[text_col].combine_chunks(), "")

    return {
        "n_chars": lambda b: pc.utf8_length(_text(b)).cast(pa.int64()),
        "n_tokens": lambda b: token_count(_text(b)).cast(pa.int64()),
        "pred_lang": lambda b: lang_id(_text(b)),
        "compression_ratio": lambda b: compression_ratio(_text(b)),
    }


def code_taggers(text_col: str = "text") -> dict:
    """RedPajama-code/StarCoder-style per-document line statistics for
    code corpora: max/mean line length (chars), alphanumeric and
    alphabetic character fractions — the four cheap signals that kill
    minified blobs, data dumps, and ASCII art before any model runs.
    All Arrow + reduceat vectorized; compose with
    ``standard_taggers()`` in one tagging pass."""

    def _lines(b: pa.Table):
        text = pc.fill_null(b[text_col].combine_chunks(), "")
        parts = pc.split_pattern(text, "\n")
        flat = pc.list_flatten(parts)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        parents = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False)
        n = b.num_rows
        starts = np.searchsorted(parents, np.arange(n))
        return lens, starts, n

    def max_line_len(b: pa.Table) -> pa.Array:
        lens, starts, n = _lines(b)
        out = (
            np.maximum.reduceat(lens, starts)
            if len(lens)
            else np.zeros(n, np.int64)
        )
        # reduceat repeats the next segment's value for empty segments
        # (docs with no lines cannot occur: split always yields >=1)
        return pa.array(out, pa.int64())

    def mean_line_len(b: pa.Table) -> pa.Array:
        lens, starts, n = _lines(b)
        if not len(lens):
            return pa.array(np.zeros(n, np.float64), pa.float64())
        sums = np.add.reduceat(lens, starts)
        counts = np.diff(np.append(starts, len(lens)))
        return pa.array(sums / np.maximum(counts, 1), pa.float64())

    def _frac(b: pa.Table, pattern: str) -> pa.Array:
        text = pc.fill_null(b[text_col].combine_chunks(), "")
        total = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
        hits = pc.count_substring_regex(text, pattern).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        return pa.array(hits / np.maximum(total, 1.0), pa.float64())

    return {
        "max_line_len": max_line_len,
        "mean_line_len": mean_line_len,
        "alnum_frac": lambda b: _frac(b, r"[a-zA-Z0-9]"),
        "alpha_frac": lambda b: _frac(b, r"[a-zA-Z]"),
    }
