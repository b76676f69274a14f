"""Deduplication operators for training-data pipelines.

The reference's only dedup-shaped behavior is uniqueness-by-key
(existing-email check + DB UNIQUE, reference auth_routes.py:177-184,
create_tables.sql:4); at corpus scale that generalizes to the standard
web-data dedup ladder (exact → MinHash-LSH → SimHash → embedding
near-dup), each built from map_batches + groupby primitives:

  * exact:   content-hash column (vectorized) → groupby(hash) →
             keep deterministic winner (min id). One shuffle.
  * minhash: shingle→signature per batch → explode to (band, key, id)
             (signatures do NOT ride the shuffle) → groupby(band, key)
             → candidate pairs → candidate signatures rebuilt from
             their band rows → agreement verify → winner assignment.
  * simhash: 64-bit fingerprint, 4×16-bit band buckets, Hamming
             verification within buckets.
  * embedding: random-hyperplane LSH buckets → within-bucket cosine.

Determinism: all hashes are stable (md5 / the repo-owned fixed-seed hash via
_flat_token_hashes, never Python's salted hash()); winners are always
the MIN id so output is independent of partitioning and block order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import (
    batch_simhash64,
    md5_hex,
    minhash_params,
)
from ..sources import block_refs, scan_blocks


# --- exact dedup -------------------------------------------------------------

def add_content_hash(text_col: str):
    """map_batches kernel factory: append md5 hex of ``text_col``."""

    def kernel(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "content_hash", pa.array(md5_hex(batch[text_col].to_pylist()), pa.string())
        )

    return kernel


def exact_dedup(
    ds,
    text_col: str,
    id_col: str,
    *,
    num_buckets: int = 256,
    fold_budget_rows: int | None = None,
):
    """Keep exactly one row per distinct ``text_col`` value — the row
    with the smallest ``id_col`` (deterministic winner; reference
    uniqueness-check idiom D2). ``ds`` is a Dataset or a list of Arrow
    block refs; every pass below is over its blocks. Two arms,
    identical results:

    * keys-only loser scan (default): one plain task per block ships
      (md5, id) rows — ~40 B each, never the text — folded on the
      driver under ``fold_budget_rows``; losers (rows beaten by a
      smaller id with the same hash) are O(duplicates), broadcast once
      via ray.put, and one more task per block drops them with a
      vectorized is_in filter. The corpus itself never shuffles.
    * past the budget, or when duplicate (hash, id) pairs exist
      (identical full rows need the grouped single-winner), the exact
      bucketed shuffle over the same blocks: coarse md5 bucket (one
      all-to-all, O(num_buckets) dispatch), min-id winner per hash
      inside each bucket."""
    import ray
    import ray.data as rd

    from .fold import fold_partials

    if fold_budget_rows is None:
        fold_budget_rows = GROUP_APPLY_FOLD_BUDGET_ROWS

    def keys_only(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "h": pa.array(md5_hex(batch[text_col].to_pylist()), pa.string()),
                "id": batch[id_col],
            }
        )

    refs = block_refs(ds)
    if not refs:  # every block of the Dataset was empty
        return ds
    df = fold_partials(scan_blocks(refs, keys_only), budget_rows=fold_budget_rows)
    # duplicate ids (same full row, or one id across different texts)
    # and null ids (is_in can't drop them; idxmin can) both break the
    # filter-by-id contract — only the grouped single-winner arm is
    # exact there
    if df is None or (len(df) and (df["id"].duplicated().any() or df["id"].isna().any())):
        return _exact_dedup_bucketed(
            rd.from_arrow_refs(refs), text_col, id_col, num_buckets=num_buckets
        )
    losers = (
        df.loc[df["id"] != df.groupby("h")["id"].transform("min"), "id"]
        if len(df)
        else []
    )
    if len(losers) == 0:
        return rd.from_arrow_refs(refs)

    def keep(batch: pa.Table, drops: pa.Array) -> pa.Table:
        col = batch[id_col]
        vs = drops if drops.type == col.type else drops.cast(col.type)
        hit = pc.is_in(col, value_set=vs)
        return batch.filter(pc.invert(pc.fill_null(hit, False)))

    drop_ref = ray.put(pa.Array.from_pandas(losers))
    return rd.from_arrow_refs(scan_blocks(refs, keep, fn_args=(drop_ref,)))


def _exact_dedup_bucketed(ds, text_col: str, id_col: str, *, num_buckets: int = 256):
    """The exact all-to-all arm of `exact_dedup` (see there)."""
    from ..functions.scalar import stable_bucket

    hashed = ds.map_batches(add_content_hash(text_col), batch_format="pyarrow")

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = stable_bucket(batch["content_hash"], num_buckets)
        return batch.append_column("_bucket", pa.array(b, pa.int32()))

    def min_per_hash(bucket: pd.DataFrame) -> pd.DataFrame:
        # stable sort + keep-first == idxmin for non-null ids, and an
        # all-null-id group (idxmin would yield NaN and loc would
        # raise) deterministically keeps its first row in frame order
        w = bucket.sort_values(
            id_col, kind="stable", na_position="last"
        ).drop_duplicates("content_hash", keep="first")
        return w.drop(columns=["content_hash", "_bucket"])

    out = (
        hashed.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(min_per_hash, batch_format="pandas")
    )
    return out


GROUP_APPLY_FOLD_BUDGET_ROWS = 5_000_000


def _typed_pair_empty(df: pd.DataFrame) -> pd.DataFrame:
    """Empty (id, keep_id) frame typed from the input's id dtype —
    string ids are supported throughout the LSH stages, and an
    int64-typed empty block from one zero-pair bucket task would break
    schema unification against string-id blocks in the past-budget
    map_groups arm."""
    idt = df["id"].dtype if "id" in df.columns else "int64"
    return pd.DataFrame(
        {"id": pd.Series(dtype=idt), "keep_id": pd.Series(dtype=idt)}
    )


def _group_all_pairs(
    df: pd.DataFrame,
    cols,
    *,
    cap: int = 1024,
    order=None,
    droppable_col: str | None = None,
    log_label: str = "lsh",
) -> pd.DataFrame:
    """All unordered within-group id pairs, vectorized across EVERY
    group in the frame at once. Equivalent to the per-group loop
    ``sort_values(order) → drop_duplicates("id") → head(cap) → emit
    (id=later, keep_id=earlier) for each in-group pair``, but
    O(rows + pairs) numpy instead of ~0.3 ms of pandas dispatch per
    group — a few thousand tiny LSH groups cost over a second that
    way (measured, round 5).

    ``order`` (default ``["id"]``) fixes the within-group order: the
    earlier row of a pair is always ``keep_id``. ``droppable_col``
    names an optional truthy column; rows where it is falsy never
    appear on the drop (``id``) side but still anchor as keepers
    (the incremental-index contract)."""
    empty = _typed_pair_empty(df)
    if len(df) == 0:
        return empty
    cols = list(cols)
    order = list(order) if order is not None else ["id"]
    df = df.sort_values(cols + order, kind="stable")
    df = df[~df.duplicated(cols + ["id"])]
    n = len(df)
    if n == 0:
        return empty
    # group boundaries on the sorted frame: one adjacent-row compare
    # per group column (no hash/ngroup pass)
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for c in cols:
        v = df[c].to_numpy()
        changed[1:] |= v[1:] != v[:-1]
    starts = np.flatnonzero(changed)
    sizes = np.diff(np.append(starts, n))
    pos = np.arange(n) - np.repeat(starts, sizes)
    over = pos >= cap
    if over.any():
        gid = np.cumsum(changed) - 1
        print(
            f"{log_label} bucket capped: {np.unique(gid[over]).size} "
            f"group(s) over {cap} candidates; pairing first {cap} per group"
        )
        keep_rows = ~over
        # surviving rows are each group's first `cap` in sort order and
        # stay contiguous, so pos still indexes from the group start
        df = df[keep_rows]
        pos = pos[keep_rows]
        n = len(df)
    ids = df["id"].to_numpy()
    # row at within-group position p is the `id` (drop) side of p pairs,
    # one per preceding row of its group
    cnt = pos.copy()
    if droppable_col is not None:
        cnt = np.where(df[droppable_col].to_numpy().astype(bool), cnt, 0)
    total = int(cnt.sum())
    if total == 0:
        return empty
    hi = np.repeat(np.arange(n), cnt)
    csum = np.cumsum(cnt)
    offset = np.arange(total) - np.repeat(csum - cnt, cnt)
    lo = np.repeat(np.arange(n) - pos, cnt) + offset
    return pd.DataFrame({"id": ids[hi], "keep_id": ids[lo]})


def _bucketed_group_apply(
    ds,
    group_cols,
    fn,
    *,
    num_buckets: int = 64,
    fold_budget_rows: int | None = None,
    frame_fn=None,
):
    """Apply ``fn`` per (group_cols) group WITHOUT paying per-group Ray
    dispatch, over the blocks of ``ds`` (a Dataset or a list of Arrow
    block refs) in the two arms of `_group_arms`.

    ``frame_fn``, when given, replaces the per-group ``fn`` loop with
    ONE call over the whole duplicate-filtered frame (all groups at
    once) — for group bodies that vectorize across groups (e.g.
    `_group_all_pairs`). Both arms use it, so the speedup applies to
    the bucket tasks at corpus scale, not just the driver fold."""
    import ray.data as rd

    if fold_budget_rows is None:
        fold_budget_rows = GROUP_APPLY_FOLD_BUDGET_ROWS
    folded, out = _group_arms(
        block_refs(ds), group_cols, fn, frame_fn, num_buckets, fold_budget_rows
    )
    return out if folded is None else rd.from_pandas(out)


def _group_arms(refs: list, group_cols, fn, frame_fn, num_buckets: int,
                fold_budget_rows: int):
    """``(folded rows, pandas result)`` or ``(None, result Dataset)``;
    identical results:

    * under ``fold_budget_rows`` (these inputs are keys-only LSH/band
      rows by design — ~44 B each, so the budget is ~220 MB) the rows
      FOLD ON THE DRIVER and one pandas groupby applies ``fn`` to the
      real groups — no all-to-all at all. A Ray groupby costs seconds
      of fixed overhead per hundred input blocks regardless of row
      count (SCALE.md round-4 audit), which dwarfs the group work at
      bench scale.
    * past the budget — the corpus-scale regime — the same blocks
      coarsen into ``num_buckets`` hash buckets (one shuffle,
      O(buckets) dispatch), then a vectorized pandas groupby inside
      each bucket applies ``fn``. LSH keys are mostly singletons —
      per-key map_groups costs ~2 ms of dispatch per key, which at
      millions of keys dwarfs the actual work; bucketing keeps the
      same shuffle volume with O(num_buckets) dispatch."""
    import ray.data as rd

    from ..functions.scalar import stable_bucket
    from .fold import fold_partials

    cols = list(group_cols)

    def apply_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # LSH group keys are overwhelmingly singletons; drop them with
        # ONE vectorized duplicated() pass so the per-group Python loop
        # only ever sees real (>=2-member) groups — iterating a million
        # singleton groups costs more than all the group work combined
        if len(df):
            df = df[df.duplicated(cols, keep=False)]
        if frame_fn is not None:
            return frame_fn(df)
        outs = []
        for _, g in df.groupby(cols, sort=True):
            outs.append(fn(g))
        if not outs:
            return _typed_pair_empty(df)
        return pd.concat(outs, ignore_index=True)

    folded = fold_partials(refs, budget_rows=fold_budget_rows)
    if folded is not None:
        return folded, apply_bucket(folded if len(folded) else pd.DataFrame(columns=cols))

    def add_bucket(batch: pa.Table) -> pa.Table:
        keys = list(zip(*(batch[c].to_pylist() for c in cols)))
        b = stable_bucket(keys, num_buckets)
        return batch.append_column("_bucket", pa.array(b, pa.int32()))

    return None, (
        rd.from_arrow_refs(refs)
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(apply_bucket, batch_format="pandas")
    )


def _min_keep_per_id(pairs):
    """Final assignment: smallest keep_id per id. The pair table is
    O(duplicates) — tiny relative to the corpus — so the final
    reduction runs driver-side in pandas instead of paying another
    all-to-all shuffle (also covers the empty case, where a Ray
    groupby over a schemaless empty dataset would raise)."""
    return _min_keep_per_id_df(pairs.to_pandas())


def _min_keep_per_id_df(df: pd.DataFrame):
    """Driver-side half of `_min_keep_per_id` for callers that already
    hold the pair table in pandas."""
    import ray.data as rd

    if "id" not in df.columns or len(df) == 0:
        df = pd.DataFrame(
            {"id": pd.Series(dtype="int64"), "keep_id": pd.Series(dtype="int64")}
        )
    else:
        df = (
            df.sort_values(["id", "keep_id"])
            .groupby("id", as_index=False)
            .first()[["id", "keep_id"]]
        )
    return rd.from_pandas(df)


# --- MinHash + LSH near-dup --------------------------------------------------

class MinHashBandKeys:
    """Per-block kernel: per-doc shingle → MinHash signature → exploded
    (band_id, band_key, id) rows. Permutation parameters built once in
    __init__.

    A band row carries only its own band's signature values, as the
    exact key bytes (``functions.text.band_keys``; ~44 B per row at the
    defaults), so a doc ships its signature once, split across its
    bands, not bands × the whole num_perm signature: a doc's band keys
    in band order ARE its signature (`_band_signatures`), so candidate
    verification never re-shingles a document."""

    def __init__(self, text_col: str, id_col: str, num_perm: int = 64,
                 bands: int = 16, k_shingle: int = 3):
        self.text_col = text_col
        self.id_col = id_col
        self.num_perm = num_perm
        self.bands = bands
        self.k = k_shingle
        self.a, self.b = minhash_params(num_perm)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.text import (
            band_keys,
            batch_shingle_hashes,
            minhash_signatures_batch,
        )

        all_hashes = batch_shingle_hashes(batch[self.text_col].to_pylist(), self.k)
        # empty/whitespace-only docs all share the degenerate all-MAX
        # signature and would flood every band bucket; they are not
        # meaningful near-dups — exact dedup owns the empty-document
        # case
        live = np.array([i for i, h in enumerate(all_hashes) if len(h)], dtype=np.int64)
        sigs = minhash_signatures_batch([all_hashes[i] for i in live], self.a, self.b)
        return pa.table(
            {
                # id keeps the column's native type (ints and strings
                # both work — nothing here narrows to int64), also
                # when every doc of the batch is skipped
                "id": batch[self.id_col].take(np.repeat(live, self.bands)),
                "band_id": pa.array(
                    np.tile(np.arange(self.bands, dtype=np.int32), len(live))
                ),
                "band_key": band_keys(sigs, self.bands),
            }
        )


def _band_signatures(band_rows: pd.DataFrame, ids) -> tuple:
    """``(ids, [len(ids), P] uint64 signatures)`` of the docs among
    ``ids`` that have band rows, rebuilt from those rows: a doc's band
    keys in band order are its signature bytes. A doc id that occurs
    twice keeps the bands of its first occurrence."""
    sub = (
        band_rows[band_rows["id"].isin(ids)]
        .drop_duplicates(["id", "band_id"])
        .sort_values(["id", "band_id"], kind="stable")
    )
    got = pd.unique(sub["id"])
    sig = np.frombuffer(b"".join(sub["band_key"]), dtype=np.uint64)
    return got, sig.reshape(len(got), -1)


def _rows_of_ids(batch: pa.Table, ids: pa.Array) -> pa.Table:
    """The rows of ``batch`` whose ``id`` is in ``ids``."""
    col = batch["id"]
    vs = ids if ids.type == col.type else ids.cast(col.type)
    return batch.filter(pc.fill_null(pc.is_in(col, value_set=vs), False))


def minhash_duplicate_assignments(
    ds,
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 64,
    bands: int = 16,
    k_shingle: int = 3,
    threshold: float = 0.8,
):
    """Dataset of (id, keep_id) pairs: id is a near-duplicate that
    should be dropped in favor of keep_id (keep_id < id always).
    ``ds`` is a Dataset, a list of Arrow block refs or a bound
    `sources.scan_table` (`sources.scan_blocks`).

    Three phases, shuffle-lean: (1) one plain task per block emits the
    band rows (id, band, that band's signature bytes: ~44 B each),
    which find candidate pairs (`_group_arms`: a driver fold, or past
    ``GROUP_APPLY_FOLD_BUDGET_ROWS`` a bucketed shuffle over the same
    band blocks); (2) each candidate's signature is its band keys in
    band order, taken from the folded band rows, or past the budget
    from the candidates' band rows alone (one filter task per band
    block) — no document is read or shingled twice; (3)
    signature-agreement fraction verifies each pair (E[agree] = J
    estimates Jaccard). The verified-pair result is identical to
    verifying inside every bucket: a pair co-occurs in ≥1 bucket iff
    it is a candidate, agreement is a pure function of the two
    signatures, and the final min-keep reduction takes the global min
    over agreeing candidates either way.
    """
    import ray

    if num_perm % bands:
        raise ValueError(
            f"num_perm={num_perm} must be a multiple of bands={bands}: the "
            "band keys are the whole signature"
        )
    band_refs = scan_blocks(
        ds,
        MinHashBandKeys(
            text_col=text_col, id_col=id_col, num_perm=num_perm,
            bands=bands, k_shingle=k_shingle,
        ),
    )

    def bucket_candidates(df: pd.DataFrame) -> pd.DataFrame:
        # all-pairs candidates within each LSH bucket, vectorized
        # across every bucket in the frame at once; LSH keeps buckets
        # small and a deterministic 1024-id cap bounds adversarial
        # ones (the cap print lands in the Ray task log). Zero-shingle
        # docs are excluded upstream so the main degenerate source of
        # giant buckets is gone.
        return _group_all_pairs(
            df, ["band_id", "band_key"], cap=1024, log_label="minhash"
        )

    band_rows, cand = _group_arms(
        band_refs, ["band_id", "band_key"], None, bucket_candidates, 64,
        GROUP_APPLY_FOLD_BUDGET_ROWS,
    )
    # candidate-pair table is O(similar pairs) — driver-side from here.
    # (an all-empty map_groups output loses its schema, hence the
    # column check before drop_duplicates)
    cand_df = cand if band_rows is not None else cand.to_pandas()
    if "id" not in cand_df.columns or len(cand_df) == 0:
        return _min_keep_per_id_df(pd.DataFrame())
    cand_df = cand_df.drop_duplicates(["id", "keep_id"])

    cand_ids = pd.unique(pd.concat([cand_df["id"], cand_df["keep_id"]]))
    if band_rows is None:
        # past the budget only the candidates' band rows come over
        cand_ref = ray.put(pa.Array.from_pandas(pd.Series(cand_ids)))
        tables = ray.get(scan_blocks(band_refs, _rows_of_ids, fn_args=(cand_ref,)))
        band_rows = pa.concat_tables(t for t in tables if t.num_rows).to_pandas()
    ids, sig_mat = _band_signatures(band_rows, cand_ids)
    a_rows = pd.Index(ids).get_indexer(cand_df["id"])
    b_rows = pd.Index(ids).get_indexer(cand_df["keep_id"])
    agree = (sig_mat[a_rows] == sig_mat[b_rows]).mean(axis=1)
    return _min_keep_per_id_df(cand_df[agree >= threshold])


# --- SimHash near-dup --------------------------------------------------------

def add_simhash(text_col: str):
    def kernel(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        hashes = batch_simhash64(texts)
        return batch.append_column("simhash", pa.array(hashes, pa.uint64()))

    return kernel


def hamming64_duplicate_assignments(
    hashed, hash_col: str, id_col: str, max_hamming: int = 3
):
    """(id, keep_id) pairs by pigeonhole banding over ANY 64-bit
    locality hash column: two hashes within Hamming distance d must
    agree exactly on at least one of d+1 disjoint bit bands, so
    bucketing by each band finds all such pairs; Hamming distance
    verifies inside the bucket. Back end of text SimHash
    (`simhash_duplicate_assignments`); any other 64-bit hash column
    (e.g. ``ImageDHash``'s) bands the same way.

    Band count is DERIVED from max_hamming (n_bands = max_hamming + 1)
    so recall is complete for any accepted value. Bands narrower than
    8 bits would make buckets collide randomly at corpus scale
    (candidate blow-up), so max_hamming > 7 is rejected."""
    if not 0 <= max_hamming <= 7:
        raise ValueError(
            f"max_hamming={max_hamming}: banding needs max_hamming+1 bands of "
            ">=8 bits over a 64-bit hash; use 0..7 (wider radii need a "
            "different candidate scheme)"
        )
    n_bands = max_hamming + 1
    base, extra = divmod(64, n_bands)
    widths = [base + (1 if i < extra else 0) for i in range(n_bands)]
    offsets = [sum(widths[:i]) for i in range(n_bands)]

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sh = batch[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        cols = {
            "id": np.tile(ids.astype(np.int64), n_bands),
            "band_id": np.repeat(np.arange(n_bands, dtype=np.int32), len(ids)),
            "band_key": np.empty(n_bands * len(ids), np.int64),
            hash_col: np.tile(sh, n_bands),
        }
        for bi in range(n_bands):
            mask = np.uint64((1 << widths[bi]) - 1)
            key = (sh >> np.uint64(offsets[bi])) & mask
            cols["band_key"][bi * len(ids) : (bi + 1) * len(ids)] = key.astype(
                np.int64
            )
        return pa.table(
            {
                "id": pa.array(cols["id"], pa.int64()),
                "band_id": pa.array(cols["band_id"], pa.int32()),
                "band_key": pa.array(cols["band_key"], pa.int64()),
                hash_col: pa.array(cols[hash_col], pa.uint64()),
            }
        )

    exploded = hashed.map_batches(explode, batch_format="pyarrow")

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        from ..functions.text import popcount64

        if len(group) < 2:
            return pd.DataFrame({"id": [], "keep_id": []}).astype("int64")
        g = group.sort_values("id").drop_duplicates("id").head(4096)
        ids = g["id"].to_numpy()
        sh = g[hash_col].to_numpy().astype(np.uint64)
        ham = popcount64(sh[:, None] ^ sh[None, :])
        match = ham <= max_hamming
        out_id, out_keep = [], []
        for j in range(1, len(ids)):
            hits = np.where(match[:j, j])[0]
            if len(hits):
                out_id.append(ids[j])
                out_keep.append(ids[hits[0]])
        return pd.DataFrame({"id": out_id, "keep_id": out_keep}).astype("int64")

    pairs = _bucketed_group_apply(exploded, ["band_id", "band_key"], bucket_pairs)
    return _min_keep_per_id(pairs)


def simhash_duplicate_assignments(ds, text_col: str, id_col: str, max_hamming: int = 3):
    """(id, keep_id) pairs for text near-dups: SimHash per doc, then
    the shared 64-bit pigeonhole banding (see
    `hamming64_duplicate_assignments` for the recall argument)."""
    hashed = ds.map_batches(add_simhash(text_col), batch_format="pyarrow")
    return hamming64_duplicate_assignments(hashed, "simhash", id_col, max_hamming)


# --- embedding cosine near-dup ----------------------------------------------

def embedding_duplicate_assignments(
    ds, vec_col: str, id_col: str, *, threshold: float = 0.95, n_planes: int = 12, seed: int = 11
):
    """(id, keep_id) pairs for embedding near-dups: random-hyperplane
    LSH (Charikar 2002) buckets vectors by sign pattern; exact cosine
    verifies within buckets. One groupby shuffle; O(bucket²) verify."""
    rng = np.random.RandomState(seed)
    planes_holder = {}

    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = np.array(batch[vec_col].to_pylist(), dtype=np.float32)
        if "planes" not in planes_holder:
            planes_holder["planes"] = np.random.RandomState(seed).randn(
                vecs.shape[1], n_planes
            ).astype(np.float32)
        planes = planes_holder["planes"]
        signs = (vecs @ planes) > 0
        keys = (signs.astype(np.uint64) << np.arange(n_planes, dtype=np.uint64)).sum(axis=1)
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        unit = vecs / norms[:, None]
        return pa.table(
            {
                "id": batch[id_col],
                "bucket": pa.array(keys.astype(np.int64), pa.int64()),
                "unit": pa.array(unit.tolist(), pa.list_(pa.float32())),
            }
        )

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        return _greedy_cosine_pairs(group, threshold)

    pairs = _bucketed_group_apply(bucketed, ["bucket"], bucket_pairs)
    return _min_keep_per_id(pairs)


def _greedy_cosine_pairs(
    group: pd.DataFrame, threshold: float, cap: int | None = None
) -> pd.DataFrame:
    """In-group exact cosine scan shared by the embedding LSH and the
    semantic (cluster-then-compare) dedup paths: sort by id (so the
    result is independent of batch/arrival order), O(|group|²) matmul
    of the pre-normalized ``unit`` vectors, then a greedy first-seen-
    keeps sweep emitting (id, keep_id) with keep = smallest id of the
    duplicate chain. ``cap`` truncates degenerate groups to the
    smallest-id rows so one hot bucket cannot go O(n²) at scale."""
    if len(group) < 2:
        return pd.DataFrame({"id": [], "keep_id": []}).astype("int64")
    g = group.sort_values("id").drop_duplicates("id")
    if cap is not None and len(g) > cap:
        g = g.head(cap)
    ids = g["id"].to_numpy()
    mat = np.array(g["unit"].tolist(), dtype=np.float32)
    sims = mat @ mat.T
    out_id, out_keep = [], []
    dropped = set()
    for i in range(len(ids)):
        if ids[i] in dropped:
            continue
        dups = np.where(sims[i, i + 1 :] >= threshold)[0] + i + 1
        for j in dups:
            if ids[j] not in dropped:
                dropped.add(ids[j])
                out_id.append(ids[j])
                out_keep.append(ids[i])
    return pd.DataFrame({"id": out_id, "keep_id": out_keep}).astype("int64")


def semantic_duplicate_assignments(
    ds,
    vec_col: str,
    id_col: str,
    *,
    threshold: float = 0.45,
    n_centroids: int = 16,
    seed: int = 13,
    cluster_cap: int = 4096,
    refine_iters: int = 0,
):
    """SemDeDup-style semantic dedup (Abbas et al. 2023,
    arXiv:2303.09540 — public paper): k-means-cluster the embedding
    space, then compare pairwise cosine ONLY within each cluster,
    dropping all but one exemplar of every within-cluster duplicate
    chain above ``threshold``. Returns (id, keep_id) assignments like
    the rest of the dedup ladder (keep = smallest id — deterministic
    under any batching; the paper keeps an arbitrary exemplar).

    Scale shape: centroids train on a hash-selected, absolutely-
    budgeted sample (``train_centroids``) and broadcast once via
    ``ray.put``; assignment is one matmul per batch; the only shuffle
    buckets rows by cluster id. Recall vs a full O(n²) scan is bounded
    by the clustering — pairs straddling a cluster boundary are never
    compared (the SemDeDup trade by design; the LSH path in
    ``embedding_duplicate_assignments`` makes the complementary trade).
    At corpus scale raise ``n_centroids`` so the expected cluster size
    stays bounded; ``cluster_cap`` additionally hard-caps any one
    cluster's compare set."""
    import ray

    from .similarity import _unit, train_centroids

    cents = train_centroids(
        ds, vec_col=vec_col, id_col=id_col, n_centroids=n_centroids, seed=seed
    )
    if refine_iters:
        # full-corpus Lloyd refinement (kmeans.kmeans_refine): tighter
        # clusters → fewer boundary-straddling missed pairs, at the
        # cost of refine_iters extra streaming passes. Default off so
        # existing goldens stay bit-stable.
        from .kmeans import kmeans_refine

        refined, _ = kmeans_refine(
            ds, cents.astype(np.float64), vec_col=vec_col, iters=refine_iters
        )
        cents = refined
    cents_ref = ray.put(cents.astype(np.float32))

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "unit": pa.array([], pa.list_(pa.float32())),
                }
            )
        cents_m = ray.get(cents_ref)
        unit = _unit(np.array(batch[vec_col].to_pylist(), dtype=np.float32))
        cl = (unit @ cents_m.T).argmax(axis=1).astype(np.int64)
        return pa.table(
            {
                "id": batch[id_col],
                "cluster": pa.array(cl, pa.int64()),
                "unit": pa.array(unit.tolist(), pa.list_(pa.float32())),
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    def cluster_pairs(group: pd.DataFrame) -> pd.DataFrame:
        return _greedy_cosine_pairs(group, threshold, cap=cluster_cap)

    pairs = _bucketed_group_apply(
        assigned, ["cluster"], cluster_pairs, num_buckets=min(64, n_centroids)
    )
    return _min_keep_per_id(pairs)


# --- n-gram Jaccard (exact pairwise within candidate buckets) ---------------

def ngram_jaccard_pairs(ds, text_col: str, id_col: str, *, k: int = 3, threshold: float = 0.5):
    """Exact n-gram Jaccard similar pairs (id_a < id_b, jaccard >= t),
    using first-shingle-hash banding to avoid the full cross product:
    docs sharing any of their 8 smallest shingle hashes land in the same
    bucket (a superset of all pairs with J >= ~0.1 in practice; exact
    verification on the candidate pairs).

    Shingle sets do NOT ride the shuffle: the explode ships (id, anchor)
    only (~16 B/row instead of each doc's full unique-shingle set ×8
    anchors), anchor buckets emit candidate id pairs, and shingles are
    recomputed for candidate ids only via the broadcast is_in probe.
    Verification cost is O(candidate pairs), a vanishing corpus
    fraction."""
    import ray
    import ray.data as rd

    from ..functions.scalar import stable_bucket

    def explode(batch: pa.Table) -> pa.Table:
        from ..functions.text import batch_shingle_hashes

        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        all_sh = batch_shingle_hashes(texts, k)
        out_id, out_key = [], []
        for i, sh_raw in zip(ids, all_sh):
            for a in np.sort(np.unique(sh_raw))[:8]:
                out_id.append(i)
                out_key.append(int(a))
        return pa.table(
            {
                "id": pa.array(out_id, pa.int64()),
                "anchor": pa.array(out_key, pa.uint64()),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def anchor_cands(df: pd.DataFrame) -> pd.DataFrame:
        outs_a, outs_b = [], []
        for _, g in df.groupby("anchor", sort=True):
            ids = np.sort(g["id"].unique())
            if len(ids) < 2:
                continue
            lo, hi = np.triu_indices(len(ids), k=1)
            outs_a.append(ids[lo])
            outs_b.append(ids[hi])
        if not outs_a:
            return pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(
            {"id_a": np.concatenate(outs_a), "id_b": np.concatenate(outs_b)}
        )

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = stable_bucket(batch["anchor"], 64)
        return batch.append_column("_bucket", pa.array(b, pa.int32()))

    cand = (
        exploded.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(anchor_cands, batch_format="pandas")
    )
    # candidate-pair table is O(similar pairs) — driver-side from here
    empty = pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    cand_df = cand.to_pandas()
    if "id_a" not in cand_df.columns or len(cand_df) == 0:
        return rd.from_pandas(empty)
    cand_df = cand_df.drop_duplicates(["id_a", "id_b"]).reset_index(drop=True)

    # deferred shingle fetch: broadcast candidate ids once, one extra
    # pass over the corpus recomputes shingles for the hits only
    cand_ids = pd.unique(pd.concat([cand_df["id_a"], cand_df["id_b"]]))
    cand_ref = ray.put(pa.Array.from_pandas(pd.Series(cand_ids)))

    def fetch(batch: pa.Table) -> pa.Table:
        from ..functions.text import batch_shingle_hashes

        cands = ray.get(cand_ref)
        col = batch[id_col]
        vs = cands if cands.type == col.type else cands.cast(col.type)
        sub = batch.filter(pc.fill_null(pc.is_in(col, value_set=vs), False))
        sh = [
            np.unique(h).tolist()
            for h in batch_shingle_hashes(sub[text_col].to_pylist(), k)
        ]
        return pa.table(
            {
                "id": sub[id_col].combine_chunks().cast(pa.int64()),
                "shingles": pa.array(sh, pa.list_(pa.uint64())),
            }
        )

    sh_df = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    sets = {int(i): set(s) for i, s in zip(sh_df["id"], sh_df["shingles"])}
    ra, rb, rj = [], [], []
    for a, b in zip(cand_df["id_a"], cand_df["id_b"]):
        sa, sb = sets[int(a)], sets[int(b)]
        union = len(sa | sb)
        jac = len(sa & sb) / union if union else 1.0
        if jac >= threshold:
            ra.append(int(a))
            rb.append(int(b))
            rj.append(jac)
    if not ra:
        return rd.from_pandas(empty)
    return rd.from_pandas(pd.DataFrame({"id_a": ra, "id_b": rb, "jaccard": rj}))
