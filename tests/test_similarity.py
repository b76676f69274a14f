"""Similarity search: brute-force exact top-k + IVF recall."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="module")
def vec_ds(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(5)
    mat = rng.randn(300, 16).astype(np.float32)
    rows = [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(300)]
    return rd.from_items(rows), mat


def _exact_topk(mat, qmat, k):
    def unit(m):
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1
        return m / n

    sims = unit(qmat.astype(np.float64)) @ unit(mat.astype(np.float64)).T
    return [np.argsort(-sims[q], kind="stable")[:k].tolist() for q in range(len(qmat))]


def test_brute_force_matches_numpy(vec_ds):
    ds, mat = vec_ds
    from textextract_ray.stages.similarity import brute_force_topk

    queries = {"query_id": np.arange(3, dtype=np.int64), "mat": mat[:3]}
    out = brute_force_topk(ds, queries, k=5).to_pandas()
    expected = _exact_topk(mat, mat[:3], 5)
    for q in range(3):
        got = out[out.query_id == q].sort_values("score", ascending=False)["vec_id"].tolist()
        assert got == expected[q]


def test_batch_invariance(vec_ds, monkeypatch):
    ds, mat = vec_ds
    import pyarrow as pa
    import ray
    import ray.data as rd

    import textextract_ray.stages.similarity as sim
    from textextract_ray.sources import block_refs

    queries = {"query_id": np.arange(2, dtype=np.int64), "mat": mat[:2]}
    a = sim.brute_force_topk(ds, queries, k=7).to_pandas()
    b = sim.brute_force_topk(ds.repartition(11), queries, k=7).to_pandas()
    key = ["query_id", "vec_id"]
    assert a[key].sort_values(key).values.tolist() == b[key].sort_values(key).values.tolist()
    # zero-row blocks (one a filter leaves, one column-less as a shuffle
    # leaves) are dropped before any kernel; the past-budget groupby
    # merge gives the same answer
    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    holes = rd.from_arrow([t.slice(0, 150), t.slice(0, 0), pa.table({}), t.slice(150)])
    assert len(block_refs(holes)) == 2
    monkeypatch.setattr(sim, "TOPK_MERGE_BUDGET_ROWS", 0)
    c = sim.brute_force_topk(holes, queries, k=7).to_pandas()
    assert a[key].sort_values(key).values.tolist() == c[key].sort_values(key).values.tolist()


def test_ivf_recall_reasonable(vec_ds):
    ds, mat = vec_ds
    from textextract_ray.stages.similarity import ivf_topk

    queries = {"query_id": np.arange(3, dtype=np.int64), "mat": mat[:3]}
    out = ivf_topk(ds, queries, k=10, n_centroids=8, nprobe=4).to_pandas()
    # the same vectors keyed by another id column give the same answer
    # (the centroid sample hashes the id column it is given)
    keyed = ds.rename_columns({"vec_id": "chunk_id"})
    out2 = ivf_topk(
        keyed, queries, id_col="chunk_id", k=10, n_centroids=8, nprobe=4
    ).to_pandas()
    key = ["query_id", "vec_id"]
    assert (
        out2[key].sort_values(key).values.tolist()
        == out[key].sort_values(key).values.tolist()
    )
    expected = _exact_topk(mat, mat[:3], 10)
    recalls = []
    for q in range(3):
        got = set(out[out.query_id == q]["vec_id"].tolist())
        recalls.append(len(got & set(expected[q])) / 10)
    assert np.mean(recalls) >= 0.5  # nprobe=4 of 8 buckets
    # the query vector itself is always found (it sits in a probed bucket)
    for q in range(3):
        assert q in set(out[out.query_id == q]["vec_id"].tolist())


def test_embedding_pca_matches_numpy_and_is_layout_stable(sf_dir, ray_session, tmp_path):
    """Distributed PCA from mergeable (n, Σx, XᵀX) partials equals
    single-process numpy PCA on the same vectors (same sign
    convention), explained variance is sane and sorted, and a
    many-tiny-files layout reproduces the result to float tolerance."""
    import numpy as np
    import pyarrow.parquet as pq

    from textextract_ray.sources import read_table
    from textextract_ray.stages.similarity import embedding_pca

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    got, evr = embedding_pca(ds, k=4)

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    x = np.array(t["embedding"].to_pylist(), np.float64)
    ids = np.asarray(t["vec_id"].to_pylist())
    o = np.argsort(ids)
    x = x[o]
    mu = x.mean(axis=0)
    cov = np.cov(x, rowvar=False)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:4]
    w = evecs[:, order]
    flip = np.sign(w[np.argmax(np.abs(w), axis=0), np.arange(4)])
    flip[flip == 0] = 1.0
    w = w * flip
    want = (x - mu) @ w

    assert got["vec_id"].tolist() == sorted(ids.tolist())
    np.testing.assert_allclose(
        got[[f"pc{j}" for j in range(4)]].to_numpy(), want, rtol=1e-7, atol=1e-9
    )
    np.testing.assert_allclose(evr[:4], evals[order] / evals.sum(), rtol=1e-9)
    assert (np.diff(evr) <= 1e-12).all() and evr.sum() <= 1.0 + 1e-9

    # layout stability: shard to 1-row files, same result
    import ray.data as rd

    shard_dir = tmp_path / "emb" 
    shard_dir.mkdir()
    step = max(1, t.num_rows // 13)
    for i, lo in enumerate(range(0, t.num_rows, step)):
        pq.write_table(t.slice(lo, step), str(shard_dir / f"p{i}.parquet"))
    got2, evr2 = embedding_pca(rd.read_parquet(str(shard_dir)), k=4)
    np.testing.assert_allclose(
        got2[[f"pc{j}" for j in range(4)]].to_numpy(),
        got[[f"pc{j}" for j in range(4)]].to_numpy(),
        rtol=1e-7, atol=1e-9,
    )


def test_int8_quantized_ann(ray_session, sf_dir):
    """int8 scalar quantization: exact min/max calibration, 4x storage,
    approximate top-k recall vs float brute force, and exact-rerank
    scores identical to the float pipeline for the candidates it
    returns."""
    import numpy as np

    from textextract_ray.sources import read_table
    from textextract_ray.stages.similarity import (
        brute_force_topk,
        quantize_embeddings,
        quantized_topk,
        train_quantizer,
    )

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    df = ds.to_pandas()
    qrows = df[df["vec_id"] % 40 == 0].head(5)
    queries = {
        "query_id": qrows["vec_id"].to_numpy().astype(np.int64),
        "mat": np.array(qrows["embedding"].tolist(), dtype=np.float32),
    }

    params = train_quantizer(ds)
    d = len(params["mn"])
    assert params["scale"].shape == (d,)
    # calibration is exact (layout-independent): re-run over a
    # repartitioned dataset gives identical params
    p2 = train_quantizer(ds.repartition(5))
    np.testing.assert_array_equal(params["mn"], p2["mn"])
    np.testing.assert_array_equal(params["scale"], p2["scale"])

    qds = quantize_embeddings(ds, params)
    qdf = qds.to_pandas()
    assert len(qdf) == len(df)
    assert len(qdf["qvec"][0]) == d  # fixed-size uint8 vectors

    want = (
        brute_force_topk(ds, queries, k=10)
        .to_pandas()
        .sort_values(["query_id", "score", "vec_id"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )

    # approximate (no rerank): a query vector must find ITSELF top-1
    approx = quantized_topk(qds, queries, params, k=10).to_pandas()
    for qid, g in approx.groupby("query_id"):
        top = g.sort_values(["score", "vec_id"], ascending=[False, True]).iloc[0]
        assert int(top["vec_id"]) == int(qid)
    # recall@10 vs exact float answer
    rec = []
    for qid, g in want.groupby("query_id"):
        got = set(approx[approx["query_id"] == qid]["vec_id"])
        rec.append(len(got & set(g["vec_id"])) / len(g))
    assert np.mean(rec) >= 0.8, rec

    # exact rerank: scores are TRUE float cosines, top-k matches the
    # float pipeline wherever the candidate pool contains the answer
    rr = (
        quantized_topk(qds, queries, params, k=10, rerank_ds=ds, rerank_mult=4)
        .to_pandas()
        .sort_values(["query_id", "score", "vec_id"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )
    rec2 = []
    for qid, g in want.groupby("query_id"):
        sub = rr[rr["query_id"] == qid]
        got = set(sub["vec_id"])
        rec2.append(len(got & set(g["vec_id"])) / len(g))
        # wherever ids agree, scores agree exactly with the float path
        merged = sub.merge(g, on=["query_id", "vec_id"], suffixes=("_q", "_f"))
        np.testing.assert_allclose(
            merged["score_q"], merged["score_f"], rtol=1e-12
        )
    assert np.mean(rec2) >= np.mean(rec)  # rerank can only help
    assert np.mean(rec2) >= 0.9, rec2
