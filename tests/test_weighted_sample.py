"""Weighted bottom-k sampling (Efraimidis-Spirakis): brute-force key
parity, weight-proportional inclusion, zero/null/negative weight
contracts, layout invariance."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from textextract_ray.functions.scalar import hash_utf8


def _ds(df, parts=None):
    import ray.data as rd

    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    return ds.repartition(parts) if parts else ds


# --- sample_weighted_bottomk_ds --------------------------------------------------


def _wframe(n=200, seed=1):
    rng = np.random.RandomState(seed)
    return pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "w": rng.gamma(2.0, 1.0, n),
            "lang": [f"l{i % 3}" for i in range(n)],
        }
    )


def _brute_keys(df, seed):
    h = hash_utf8(
        pa.array(df["doc_id"].astype(str).tolist()), seed=seed
    ).astype(np.uint64)
    u = (h.astype(np.float64) + 1.0) / 2.0**64
    return -np.log(u) / df["w"].to_numpy()


def test_weighted_bottomk_matches_brute_force(ray_session):
    from textextract_ray.pipelines.textops import sample_weighted_bottomk_ds

    df = _wframe()
    got = sample_weighted_bottomk_ds(_ds(df, 7), k=25, weight_col="w", seed=3)
    keys = _brute_keys(df, seed=3)
    want_ids = df["doc_id"].to_numpy()[np.lexsort((df["doc_id"], keys))][:25]
    assert got["doc_id"].tolist() == sorted(
        want_ids, key=lambda i: (keys[i], i)
    )
    assert len(got) == 25
    np.testing.assert_allclose(
        got["sample_key"].to_numpy(), np.sort(keys)[:25], rtol=1e-12
    )


def test_weighted_bottomk_layout_and_groups(ray_session):
    from textextract_ray.pipelines.textops import sample_weighted_bottomk_ds

    df = _wframe(seed=5)
    a = sample_weighted_bottomk_ds(_ds(df, 2), k=10, weight_col="w", seed=0,
                                   group_col="lang")
    b = sample_weighted_bottomk_ds(_ds(df, 11), k=10, weight_col="w", seed=0,
                                   group_col="lang")
    pd.testing.assert_frame_equal(a, b)
    assert (a.groupby("lang")["doc_id"].count() == 10).all()


def test_weighted_bottomk_weight_contracts(ray_session):
    from textextract_ray.pipelines.textops import sample_weighted_bottomk_ds

    df = _wframe(n=50)
    df.loc[:39, "w"] = 0.0  # only ids 40..49 can ever sample
    df.loc[5, "w"] = np.nan
    got = sample_weighted_bottomk_ds(_ds(df), k=20, weight_col="w", seed=1)
    assert len(got) == 10 and set(got["doc_id"]) == set(range(40, 50))

    bad = _wframe(n=10)
    bad.loc[3, "w"] = -1.0
    with pytest.raises(Exception, match="negative weight"):
        sample_weighted_bottomk_ds(_ds(bad), k=3, weight_col="w")


def test_weighted_bottomk_inclusion_tracks_weight(ray_session):
    from textextract_ray.pipelines.textops import sample_weighted_bottomk_ds

    # one heavy item (w=500) among 99 light (w=1): across seeds it must
    # be sampled almost always at k=10
    df = pd.DataFrame(
        {"doc_id": np.arange(100, dtype=np.int64),
         "w": [500.0] + [1.0] * 99}
    )
    ds = _ds(df, 4)
    hits = sum(
        0 in set(
            sample_weighted_bottomk_ds(ds, k=10, weight_col="w", seed=s)["doc_id"]
        )
        for s in range(20)
    )
    assert hits >= 19
