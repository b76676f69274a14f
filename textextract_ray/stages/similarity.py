"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the query matrix is broadcast via
``ray.put`` ONCE and read per actor (never re-shipped per batch); each
batch does one numpy matmul and emits only its local top-k per query, so
the final exact merge shuffles k·num_queries·num_blocks rows, not the
corpus. Scale path: IVF — coarse centroids (trained on a deterministic
sample) bucket the corpus; queries probe the nearest nprobe buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources import scan_blocks
from .fold import fold_partials


def _as_matrix(col) -> np.ndarray:
    # float64: match the SQL oracle's double arithmetic closely enough
    # that 6-decimal-rounded scores agree
    return np.array(col.to_pylist(), dtype=np.float64)


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return mat / norms[:, None]


TOPK_MERGE_BUDGET_ROWS = 5_000_000
# the partial and merged rows of every top-k stage
_TOPK_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()), ("score", pa.float64())]
)


def _merge_topk(partial: list, k: int):
    """Final top-k per query over the partial nominations' refs.

    Partial rows are O(blocks · nq · k) by construction — vanishing
    next to the corpus — so the merge FOLDS ON THE DRIVER while they
    fit ``TOPK_MERGE_BUDGET_ROWS`` (`stages.fold.fold_partials`, then
    one pandas sort + per-query head; no all-to-all — a Ray
    groupby over the tiny partial blocks costs ~2s of fixed shuffle
    overhead regardless of data size). Past the budget (huge block
    counts × many queries) the key-partitioned groupby arm engages
    over the same refs. Both arms apply the same (score desc, vec_id
    asc) order; results are identical."""
    import ray.data as rd

    df = fold_partials(partial, budget_rows=TOPK_MERGE_BUDGET_ROWS)
    if df is not None:
        if not len(df):
            return rd.from_arrow(_TOPK_SCHEMA.empty_table())
        top = (
            df.sort_values(["query_id", "score", "vec_id"], ascending=[True, False, True])
            .groupby("query_id")
            .head(k)
        )
        return rd.from_arrow(pa.Table.from_pandas(top, _TOPK_SCHEMA, preserve_index=False))

    def merge(group: pa.Table) -> pa.Table:
        # pyarrow in/out: a pandas merge emitting PandasBlockSchema
        # blocks next to empty pyarrow blocks triggers Ray's
        # mixed-schema RefBundle warning and a needless conversion
        order = pc.sort_indices(
            group, sort_keys=[("score", "descending"), ("vec_id", "ascending")]
        )
        return group.take(order[: min(k, len(group))])

    return (
        rd.from_arrow_refs(partial)
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    )


def brute_force_topk(ds, queries: dict, *, vec_col="embedding", id_col="vec_id", k=10):
    """Exact cosine top-k: per-batch partial top-k, then a small
    per-query merge (budgeted driver fold — see ``_merge_topk``).
    ``queries`` = {"query_id": int64 array, "mat": float32 [nq, d]}.
    Returns (query_id, vec_id, score) rows, exactly k per query, ties
    broken by smaller vec_id (deterministic). ``ds`` is a Dataset, a
    list of Arrow block refs or a bound `sources.scan_table`.

    The partial stage runs as STATELESS TASKS, not an actor pool: the
    query matrix is unit-normalized ONCE before ``ray.put``, so each
    task's ``ray.get`` is a zero-copy plasma read and there is no
    per-actor spin-up cost (~1s per pool on an idle cluster) and no
    per-batch renormalization."""
    import ray

    qref = ray.put(
        {
            "query_id": np.asarray(queries["query_id"], dtype=np.int64),
            "unit_mat": _unit(np.asarray(queries["mat"], dtype=np.float64)),
        }
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(qref)
        qids, qmat = q["query_id"], q["unit_mat"]
        vecs = _unit(_as_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sims = qmat @ vecs.T  # [nq, nb]
        k_eff = min(k, sims.shape[1])
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            # lexsort (score desc, id asc): argpartition would discard
            # score-TIED candidates at the local k-boundary arbitrarily,
            # making the global result depend on block layout
            order = np.lexsort((ids, -sims[qi]))[:k_eff]
            out_q.append(np.full(k_eff, qids[qi], dtype=np.int64))
            out_id.append(ids[order])
            out_s.append(sims[qi, order].astype(np.float64))
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    return _merge_topk(scan_blocks(ds, local_topk), k)


# --- IVF (scale path) --------------------------------------------------------

def _hash_sample(ds, *, vec_col="embedding", id_col="vec_id",
                 sample_frac=0.2, sample_budget_rows=100_000) -> np.ndarray:
    """Layout-independent, absolutely-budgeted sample pull shared by
    every sample-trained model in this module (IVF centroids, PQ
    codebooks): stable-hash bucket selection on the id column (NOT
    ``random_sample`` — see train_centroids docstring), rows sorted by
    id so arrival order cannot leak into training. Returns the raw
    float32 sample matrix (callers normalize as their model needs)."""
    import math

    import pyarrow as pa

    from ..functions.scalar import stable_bucket

    n_buckets = 1000
    count = ds.count()  # parquet metadata count — no full scan
    if count * sample_frac > sample_budget_rows:
        sample_frac = sample_budget_rows / max(count, 1)
        n_buckets = max(1000, math.ceil(count / sample_budget_rows) * 10)
    cut = max(1, int(sample_frac * n_buckets))

    def pick(batch: pa.Table) -> pa.Table:
        b = stable_bucket(batch[id_col], n_buckets)
        return batch.filter(pa.array(b < cut))

    sample = sorted(
        ds.map_batches(pick, batch_format="pyarrow").take_all(),
        key=lambda r: r[id_col],
    )
    return np.array([r[vec_col] for r in sample], dtype=np.float32)


def train_centroids(ds, *, vec_col="embedding", id_col="vec_id", n_centroids=16,
                    sample_frac=0.2, sample_budget_rows=100_000, iters=10,
                    seed=13) -> np.ndarray:
    """Deterministic mini k-means on a sampled subset (driver-side on
    the SAMPLE only — the corpus itself is never materialized).

    The sample is selected by a stable hash of the id column, NOT
    ``random_sample``: Ray's sampler draws per-block, so its output
    depends on block layout / parallelism — the same job at 8 and 32
    CPUs would train different centroids and return different top-k.
    Hash-selection is layout-independent (same rows at any cluster
    size).

    ``sample_budget_rows`` is an ABSOLUTE cap on the pulled sample:
    fraction-only sampling is corpus-proportional (20 % of 10^12 rows
    is not a sample, it is the corpus — VERDICT r2 finding 3). When
    the fraction would exceed the budget, the effective fraction
    shrinks to ~budget/count and the hash-bucket granularity refines so
    the cut can express it; k-means on ≥10^5 hash-spread rows trains
    the same centroids for all practical purposes. For corpora where
    frac × count ≤ budget the selection is bit-identical to the
    budget-free behavior (goldens unchanged). Sample selection lives
    in ``_hash_sample`` (shared with the PQ codebook trainer)."""
    mat = _unit(
        _hash_sample(
            ds, vec_col=vec_col, id_col=id_col,
            sample_frac=sample_frac, sample_budget_rows=sample_budget_rows,
        )
    )
    rng = np.random.RandomState(seed)
    cents = mat[rng.choice(len(mat), size=min(n_centroids, len(mat)), replace=False)]
    for _ in range(iters):
        assign = (mat @ cents.T).argmax(axis=1)
        for c in range(len(cents)):
            members = mat[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def ivf_topk(ds, queries: dict, *, vec_col="embedding", id_col="vec_id", k=10,
             n_centroids=16, nprobe=4, seed=13, refine_iters=0):
    """IVF approximate top-k: assign rows to their nearest centroid,
    keep only rows whose centroid is among the query's nprobe nearest,
    then exact cosine within the probed subset. Centroids broadcast
    once; assignment is one matmul per batch. ``refine_iters > 0``
    additionally refines the sample-trained centroids with that many
    full-corpus distributed Lloyd passes (``kmeans.kmeans_refine``) —
    off by default so results stay bit-stable for existing callers."""
    import ray

    cents = train_centroids(
        ds, vec_col=vec_col, id_col=id_col, n_centroids=n_centroids, seed=seed
    )
    if refine_iters:
        from .kmeans import kmeans_refine

        refined, _ = kmeans_refine(
            ds, cents.astype(np.float64), vec_col=vec_col, iters=refine_iters
        )
        cents = refined.astype(np.float32)
    qmat = _unit(queries["mat"].astype(np.float32))
    probe = np.argsort(-(qmat @ cents.T), axis=1)[:, :nprobe]  # [nq, nprobe]
    probed_arrs = [np.sort(row) for row in probe]
    # stateless-task broadcast (see brute_force_topk): everything the
    # per-batch kernel needs is precomputed once and read zero-copy
    sref = ray.put(
        {
            "cents": cents,
            "qids": np.asarray(queries["query_id"], dtype=np.int64),
            "unit_qmat": qmat,
            "probed": probed_arrs,
        }
    )

    def probed_topk(batch: pa.Table) -> pa.Table:
        s_ = ray.get(sref)
        cents_, qids, uqmat, probed = s_["cents"], s_["qids"], s_["unit_qmat"], s_["probed"]
        vecs = _unit(_as_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        assign = (vecs @ cents_.T).argmax(axis=1)
        out_q, out_id, out_s = [], [], []
        sims = uqmat @ vecs.T
        for qi in range(len(qids)):
            mask = np.isin(assign, probed[qi])
            if not mask.any():
                continue
            s = sims[qi][mask]
            sel_ids = ids[mask]
            k_eff = min(k, len(s))
            # tie-stable like brute_force_topk: score desc, then id asc,
            # so block layout can't change which tied candidate survives
            idx = np.lexsort((sel_ids, -s))[:k_eff]
            out_q.append(np.full(k_eff, qids[qi], dtype=np.int64))
            out_id.append(sel_ids[idx])
            out_s.append(s[idx].astype(np.float64))
        if not out_q:
            return _TOPK_SCHEMA.empty_table()
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    return _merge_topk(scan_blocks(ds, probed_topk), k)


def embedding_pca(ds, *, k: int = 8, vec_col: str = "embedding", id_col: str = "vec_id"):
    """Distributed PCA over an embedding column via mergeable
    sufficient statistics — the standard pattern for corpus-scale
    linear algebra:

    1. each batch emits ONE row of partials: (n, Σx, XᵀX) — O(d²)
       floats per BLOCK, so the driver pull is O(blocks·d²), never the
       vectors;
    2. the driver assembles the covariance (d×d, tiny — d=64 here),
       eigendecomposes, and fixes each component's sign by forcing its
       largest-|coefficient| positive (eigenvector sign is otherwise
       arbitrary → would break run determinism);
    3. the top-k projection broadcasts once via ``ray.put`` and a
       streaming map projects every vector: coords = (x − μ) @ W.

    Returns (projected pandas frame sorted by id, explained-variance
    ratios). Projection columns are pc0..pc{k-1} float64. Summation
    order varies with block layout, so values are reproducible to
    float tolerance (~1e-9 relative), not bit-exact — callers that
    need exactness round, as the oracles do."""
    import ray

    def partials(batch: pa.Table) -> pa.Table:
        x = _as_matrix(batch[vec_col])
        return pa.table(
            {
                "n": pa.array([x.shape[0]], pa.int64()),
                "s": pa.array([x.sum(axis=0).tolist()]),
                "xtx": pa.array([(x.T @ x).ravel().tolist()]),
            }
        )

    parts = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    n = int(parts["n"].sum())
    if n < 2:
        raise ValueError("embedding_pca needs at least 2 vectors")
    s = np.sum(np.stack([np.asarray(v, np.float64) for v in parts["s"]]), axis=0)
    xtx = np.sum(np.stack([np.asarray(v, np.float64) for v in parts["xtx"]]), axis=0)
    d = s.shape[0]
    mean = s / n
    cov = (xtx.reshape(d, d) - n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:k]
    w = evecs[:, order]
    flip = np.sign(w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])])
    flip[flip == 0] = 1.0
    w = w * flip
    evr = evals[order] / max(evals.sum(), 1e-300)
    wref = ray.put((mean, w))

    def project(batch: pa.Table) -> pa.Table:
        mu, ww = ray.get(wref)
        x = _as_matrix(batch[vec_col])
        coords = (x - mu) @ ww
        cols = {id_col: batch[id_col]}
        for j in range(coords.shape[1]):
            cols[f"pc{j}"] = pa.array(coords[:, j], pa.float64())
        return pa.table(cols)

    out = (
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values(id_col)
        .reset_index(drop=True)
    )
    return out, evr


# --- int8 scalar quantization (ANN storage/scale path) ------------------------

def train_quantizer(ds, *, vec_col="embedding"):
    """Per-dimension affine uint8 quantizer calibrated on the UNIT
    vectors with EXACT corpus min/max — one shuffle-free pass of
    mergeable (min, max) partials, O(blocks·d) floats to the driver
    (the embedding_pca sufficient-statistic shape). Returns
    {"mn": float64[d], "scale": float64[d]} with
    q = round((unit(x) - mn) / scale) in [0, 255]."""
    mn = None
    mx = None

    def partials(batch: pa.Table) -> pa.Table:
        m = _unit(_as_matrix(batch[vec_col]))
        return pa.table(
            {
                "mn": pa.array([m.min(axis=0)], pa.list_(pa.float64())),
                "mx": pa.array([m.max(axis=0)], pa.list_(pa.float64())),
            }
        )

    pds = ds.map_batches(partials, batch_format="pyarrow")
    for b in pds.iter_batches(batch_size=256, batch_format="pyarrow"):
        for lo, hi in zip(b["mn"].to_pylist(), b["mx"].to_pylist()):
            lo = np.asarray(lo)
            hi = np.asarray(hi)
            mn = lo if mn is None else np.minimum(mn, lo)
            mx = hi if mx is None else np.maximum(mx, hi)
    if mn is None:
        raise ValueError("train_quantizer: empty dataset")
    scale = (mx - mn) / 255.0
    scale[scale == 0] = 1.0
    return {"mn": mn, "scale": scale}


def quantize_embeddings(ds, params, *, vec_col="embedding", id_col="vec_id"):
    """float list<float> embeddings -> fixed_size_list<uint8> (4x
    smaller than float32, 8x than float64 — the storage that rides the
    object store and disk at 100 TB). Broadcast params once."""
    import ray

    pref = ray.put(params)

    def q(batch: pa.Table) -> pa.Table:
        p = ray.get(pref)
        m = _unit(_as_matrix(batch[vec_col]))
        qv = np.clip(np.round((m - p["mn"]) / p["scale"]), 0, 255).astype(np.uint8)
        d = qv.shape[1] if qv.size else len(p["mn"])
        flat = pa.array(qv.ravel(), pa.uint8())
        return pa.table(
            {
                id_col: batch[id_col],
                "qvec": pa.FixedSizeListArray.from_arrays(flat, d),
            }
        )

    return ds.map_batches(q, batch_format="pyarrow")


class QuantizedTopK:
    """Actor-pool stage: approximate cosine top-m of each quantized
    batch. Dequantize-once-per-batch (x-hat = q*scale + mn), then the
    same lexsorted partial top-k as BatchTopK. Params + queries fetched
    once per actor."""

    def __init__(self, queries_ref, params_ref, id_col: str, m: int):
        import ray

        q = ray.get(queries_ref)
        p = ray.get(params_ref)
        self.qids = q["query_id"]
        self.qmat = _unit(q["mat"].astype(np.float64))
        self.mn = p["mn"]
        self.scale = p["scale"]
        self.id_col = id_col
        self.m = m

    def __call__(self, batch: pa.Table) -> pa.Table:
        d = len(self.mn)
        flat = batch["qvec"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False
        )
        mat = flat.reshape(-1, d).astype(np.float64) * self.scale + self.mn
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sims = self.qmat @ mat.T
        m = min(self.m, sims.shape[1])
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            order = np.lexsort((ids, -sims[qi]))[:m]
            out_q.append(np.full(m, self.qids[qi], dtype=np.int64))
            out_id.append(ids[order])
            out_s.append(sims[qi, order].astype(np.float64))
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )


def quantized_topk(qds, queries, params, *, k=10, id_col="vec_id",
                   rerank_ds=None, vec_col="embedding", rerank_mult=4):
    """Approximate cosine top-k over a QUANTIZED embedding dataset.
    Without ``rerank_ds``: dequantized scores directly (error bounded
    by the per-dim step, ~0.4% of the unit range). With ``rerank_ds``
    (the float dataset): top-(k·rerank_mult) candidates per query are
    re-scored EXACTLY by fetching their float vectors via the broadcast
    ``is_in`` probe — candidates are O(queries·k·mult), a vanishing
    corpus fraction, the module's deferred-fetch idiom — so quantization
    only affects which candidates enter the rerank pool (recall), never
    the returned scores."""
    import ray

    m = k * (rerank_mult if rerank_ds is not None else 1)
    qref = ray.put(queries)
    pref = ray.put(params)
    partial = qds.map_batches(
        QuantizedTopK,
        batch_format="pyarrow",
        concurrency=(1, 8),
        fn_constructor_kwargs=dict(
            queries_ref=qref, params_ref=pref, id_col=id_col, m=m
        ),
    )

    def merge_m(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group, sort_keys=[("score", "descending"), ("vec_id", "ascending")]
        )
        return group.take(order[: min(m, len(group))])

    cand = partial.groupby("query_id").map_groups(merge_m, batch_format="pyarrow")
    if rerank_ds is None:
        if rerank_mult != 1:

            def cut(group: pa.Table) -> pa.Table:
                order = pc.sort_indices(
                    group,
                    sort_keys=[("score", "descending"), ("vec_id", "ascending")],
                )
                return group.take(order[: min(k, len(group))])

            return cand.groupby("query_id").map_groups(cut, batch_format="pyarrow")
        return cand

    return _exact_rerank(cand, rerank_ds, queries, k=k, id_col=id_col, vec_col=vec_col)


def _exact_rerank(cand, rerank_ds, queries, *, k, id_col, vec_col):
    """Shared exact-rerank tail for the quantized ANN paths (int8 SQ
    and PQ): pull the O(queries·k·mult) candidate table, fetch ONLY the
    candidates' float vectors via the broadcast ``is_in`` probe (the
    module's deferred-fetch idiom), re-score exactly, cut to top-k.
    Quantization then only affects recall, never returned scores."""
    import ray

    cand_df = cand.to_pandas()  # O(queries * k * mult)
    cand_ids = np.unique(cand_df["vec_id"].to_numpy())
    cref = ray.put(pa.array(cand_ids.astype("int64"), pa.int64()))

    def fetch(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[id_col].cast(pa.int64()), ray.get(cref))
        sub = batch.filter(mask)
        if sub.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    vec_col: pa.array([], pa.list_(pa.float64())),
                }
            )
        return pa.table(
            {
                id_col: sub[id_col].combine_chunks().cast(pa.int64()),
                vec_col: pa.array(
                    _as_matrix(sub[vec_col]).tolist(), pa.list_(pa.float64())
                ),
            }
        )

    vec_df = rerank_ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    vmat = _unit(np.array(vec_df[vec_col].tolist(), dtype=np.float64))
    vids = vec_df[id_col].to_numpy()
    pos = {int(v): i for i, v in enumerate(vids)}
    qmat = _unit(queries["mat"].astype(np.float64))
    qid_to_row = {int(q): i for i, q in enumerate(queries["query_id"])}

    rows_q, rows_v, rows_s = [], [], []
    for qid, g in cand_df.groupby("query_id", sort=True):
        qv = qmat[qid_to_row[int(qid)]]
        ids = g["vec_id"].to_numpy()
        exact = vmat[[pos[int(v)] for v in ids]] @ qv
        order = np.lexsort((ids, -exact))[:k]
        rows_q.append(np.full(len(order), qid, dtype=np.int64))
        rows_v.append(ids[order])
        rows_s.append(exact[order])
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "query_id": pa.array(np.concatenate(rows_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(rows_v), pa.int64()),
                "score": pa.array(np.concatenate(rows_s), pa.float64()),
            }
        )
    )


# --- product quantization (PQ / ADC — the 100-TB ANN memory path) -------------

def train_pq(ds, *, m=8, n_codes=256, vec_col="embedding", id_col="vec_id",
             sample_frac=0.2, sample_budget_rows=100_000, iters=15, seed=29):
    """Train a product quantizer (Jégou, Douze, Schmid, TPAMI 2011 —
    public paper): split the UNIT vector into ``m`` contiguous
    subvectors and learn an independent ``n_codes``-word Euclidean
    k-means codebook per subspace, on the shared budget-capped hash
    sample (``_hash_sample`` — the corpus never materializes).

    Storage story this buys at scale: d=64 float64 embeddings are
    512 B/vector; PQ codes are m=8 B/vector — 64× — so the searchable
    index for 10^12 vectors fits in ~8 TB of object store instead of
    ~0.5 PB, and every scoring pass streams uint8 codes, not floats.

    Returns {"codebooks": float64[m, n_codes, dsub], "d": d, "m": m}.
    Deterministic: sample is layout-independent, init is
    RandomState(seed + j) over the sorted sample, empty codewords keep
    their previous value."""
    if not 1 <= n_codes <= 256:
        # codes are stored as uint8 (that IS the compression); a larger
        # codebook would silently wrap mod 256 in pq_encode
        raise ValueError(f"train_pq: n_codes must be in [1, 256], got {n_codes}")
    sample = _unit(_hash_sample(
        ds, vec_col=vec_col, id_col=id_col,
        sample_frac=sample_frac, sample_budget_rows=sample_budget_rows,
    ).astype(np.float64))
    n, d = sample.shape
    if d % m != 0:
        raise ValueError(f"train_pq: dim {d} not divisible by m={m}")
    dsub = d // m
    n_codes = min(n_codes, n)
    books = np.empty((m, n_codes, dsub), dtype=np.float64)
    for j in range(m):
        x = sample[:, j * dsub : (j + 1) * dsub]
        rng = np.random.RandomState(seed + j)
        c = x[rng.choice(n, size=n_codes, replace=False)].copy()
        for _ in range(iters):
            # Euclidean assignment: argmin ||x-c||^2 == argmin (||c||^2 - 2 x.c)
            d2 = (c * c).sum(axis=1)[None, :] - 2.0 * (x @ c.T)
            assign = d2.argmin(axis=1)
            for w in range(n_codes):
                members = x[assign == w]
                if len(members):
                    c[w] = members.mean(axis=0)
        books[j] = c
    return {"codebooks": books, "d": d, "m": m}


def pq_encode(ds, pq, *, vec_col="embedding", id_col="vec_id"):
    """Unit-normalize and encode every vector to its per-subspace
    nearest codeword: (id, pqcode fixed_size_list<uint8>[m]). Codebooks
    broadcast once via ``ray.put``; one matmul per subspace per batch;
    streams (callers write or chain)."""
    import ray

    pref = ray.put(pq)

    def enc(batch: pa.Table) -> pa.Table:
        p = ray.get(pref)
        books, mq = p["codebooks"], p["m"]
        dsub = p["d"] // mq
        x = _unit(_as_matrix(batch[vec_col]))
        codes = np.empty((x.shape[0], mq), dtype=np.uint8)
        for j in range(mq):
            sub = x[:, j * dsub : (j + 1) * dsub]
            c = books[j]
            d2 = (c * c).sum(axis=1)[None, :] - 2.0 * (sub @ c.T)
            codes[:, j] = d2.argmin(axis=1).astype(np.uint8)
        flat = pa.array(codes.ravel(), pa.uint8())
        return pa.table(
            {
                id_col: batch[id_col],
                "pqcode": pa.FixedSizeListArray.from_arrays(flat, mq),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow")


class PQTopK:
    """Actor-pool stage: ADC (asymmetric distance computation) partial
    top-m per batch. Per-query lookup tables LUT[j, w] = q_sub_j ·
    codebook[j][w] are built ONCE PER ACTOR in __init__ (nq × m ×
    n_codes floats — tiny); scoring a batch is one uint8 gather + sum
    per query, no float vectors touched."""

    def __init__(self, queries_ref, pq_ref, id_col: str, m_out: int):
        import ray

        q = ray.get(queries_ref)
        p = ray.get(pq_ref)
        books = p["codebooks"]  # [m, n_codes, dsub]
        self.mq = p["m"]
        dsub = p["d"] // self.mq
        self.qids = q["query_id"]
        qmat = _unit(q["mat"].astype(np.float64))
        # luts[qi]: [m, n_codes] partial dot products
        self.luts = np.stack([
            np.stack([
                books[j] @ qmat[qi, j * dsub : (j + 1) * dsub]
                for j in range(self.mq)
            ])
            for qi in range(qmat.shape[0])
        ])
        self.id_col = id_col
        self.m_out = m_out

    def __call__(self, batch: pa.Table) -> pa.Table:
        codes = (
            batch["pqcode"].combine_chunks().flatten()
            .to_numpy(zero_copy_only=False).reshape(-1, self.mq)
        ).astype(np.int64)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        j_idx = np.arange(self.mq)
        out_q, out_id, out_s = [], [], []
        mo = min(self.m_out, codes.shape[0])
        for qi in range(len(self.qids)):
            scores = self.luts[qi][j_idx[None, :], codes].sum(axis=1)
            order = np.lexsort((ids, -scores))[:mo]
            out_q.append(np.full(mo, self.qids[qi], dtype=np.int64))
            out_id.append(ids[order])
            out_s.append(scores[order])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )


def pq_topk(code_ds, queries, pq, *, k=10, id_col="vec_id",
            rerank_ds=None, vec_col="embedding", rerank_mult=4):
    """Approximate cosine top-k over PQ codes via ADC. Without
    ``rerank_ds``: reconstructed-dot scores directly. With it: the
    top-(k·rerank_mult) candidate pool per query is re-scored EXACTLY
    through the shared deferred-fetch rerank (``_exact_rerank``), so PQ
    affects recall only. Same (query_id, vec_id, score) contract and
    tie rule (score desc, id asc) as every other top-k in the module."""
    import ray

    m_out = k * (rerank_mult if rerank_ds is not None else 1)
    qref = ray.put(queries)
    pref = ray.put(pq)
    partial = code_ds.map_batches(
        PQTopK,
        batch_format="pyarrow",
        concurrency=(1, 8),
        fn_constructor_kwargs=dict(
            queries_ref=qref, pq_ref=pref, id_col=id_col, m_out=m_out
        ),
    )

    def merge(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group, sort_keys=[("score", "descending"), ("vec_id", "ascending")]
        )
        return group.take(order[: min(m_out, len(group))])

    cand = partial.groupby("query_id").map_groups(merge, batch_format="pyarrow")
    if rerank_ds is None:
        return cand
    return _exact_rerank(cand, rerank_ds, queries, k=k, id_col=id_col, vec_col=vec_col)
