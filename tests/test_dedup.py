"""Dedup ladder tests: exact, MinHash-LSH, SimHash, embedding."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.fixture()
def doc_ds(ray_session):
    import ray.data as rd

    base = "the quick brown fox jumps over the lazy dog again and again today"
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},  # exact dup of 0
        {"doc_id": 2, "text": base + " extra"},  # near dup of 0
        {"doc_id": 3, "text": "completely different text about databases and airplanes"},
        {"doc_id": 4, "text": base},  # exact dup of 0
        {"doc_id": 5, "text": "another unrelated document mentioning space travel topics"},
    ]
    return rd.from_items(rows)


def test_exact_dedup_keeps_min_id(doc_ds):
    from textextract_ray.stages.dedup import exact_dedup

    out = exact_dedup(doc_ds, "text", "doc_id").to_pandas()
    assert sorted(out["doc_id"]) == [0, 2, 3, 5]


def test_minhash_finds_near_dups(doc_ds):
    from textextract_ray.stages.dedup import minhash_duplicate_assignments

    pairs = minhash_duplicate_assignments(
        doc_ds, "text", "doc_id", threshold=0.5
    ).to_pandas()
    assignments = dict(zip(pairs["id"], pairs["keep_id"]))
    assert assignments[1] == 0
    assert assignments[4] == 0
    assert assignments.get(2) == 0  # near dup caught
    assert 3 not in assignments
    assert 5 not in assignments


def test_minhash_dedup_filters(doc_ds):
    # dropping every assigned id leaves one member per near-dup group
    from textextract_ray.stages.dedup import minhash_duplicate_assignments

    pairs = minhash_duplicate_assignments(
        doc_ds, "text", "doc_id", threshold=0.5
    ).to_pandas()
    kept = set(doc_ds.to_pandas()["doc_id"]) - set(pairs["id"])
    assert kept == {0, 3, 5}


def test_minhash_dedup_string_ids(ray_session):
    # id columns keep their native type end-to-end — string ids (e.g.
    # urls) must not be force-cast to int64 anywhere in the ladder
    import ray.data as rd

    from textextract_ray.stages.dedup import minhash_duplicate_assignments

    base = "the quick brown fox jumps over the lazy dog again and again today"
    rows = [
        {"url": "a://0", "text": base},
        {"url": "b://1", "text": base},
        {"url": "c://2", "text": "totally unrelated text about marine biology research"},
    ]
    pairs = minhash_duplicate_assignments(
        rd.from_items(rows), "text", "url", threshold=0.5
    ).to_pandas()
    assert pairs[["id", "keep_id"]].values.tolist() == [["b://1", "a://0"]]


def test_minhash_dedup_no_dups_passthrough(ray_session):
    # no near-dups: the assignment table is empty, not an error
    import ray.data as rd

    from textextract_ray.stages.dedup import minhash_duplicate_assignments

    rows = [
        {"url": "a://0", "text": "first entirely distinct document body here"},
        {"url": "b://1", "text": "second unrelated text about marine biology"},
    ]
    pairs = minhash_duplicate_assignments(
        rd.from_items(rows), "text", "url", threshold=0.5
    ).to_pandas()
    assert len(pairs) == 0


def test_simhash_assignments(doc_ds):
    from textextract_ray.stages.dedup import simhash_duplicate_assignments

    pairs = simhash_duplicate_assignments(
        doc_ds, "text", "doc_id", max_hamming=3
    ).to_pandas()
    assignments = dict(zip(pairs["id"], pairs["keep_id"]))
    assert assignments[1] == 0 and assignments[4] == 0
    assert 3 not in assignments and 5 not in assignments


def test_embedding_near_dups(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(3)
    base = rng.randn(8).astype(np.float32)
    rows = [
        {"vec_id": 0, "embedding": base.tolist()},
        {"vec_id": 1, "embedding": (base * 2.0).tolist()},  # same direction
        {"vec_id": 2, "embedding": (base + rng.randn(8).astype(np.float32) * 0.01).tolist()},
        {"vec_id": 3, "embedding": rng.randn(8).astype(np.float32).tolist()},
    ]
    from textextract_ray.stages.dedup import embedding_duplicate_assignments

    pairs = embedding_duplicate_assignments(
        rd.from_items(rows), "embedding", "vec_id", threshold=0.99
    ).to_pandas()
    assignments = dict(zip(pairs["id"], pairs["keep_id"]))
    assert assignments.get(1) == 0
    assert assignments.get(2) == 0
    assert 3 not in assignments


def test_semantic_dedup_finds_planted_dups(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(5)
    rows = [
        {"vec_id": i, "embedding": rng.randn(8).astype(np.float32).tolist()}
        for i in range(40)
    ]
    base3 = np.array(rows[3]["embedding"], dtype=np.float32)
    base17 = np.array(rows[17]["embedding"], dtype=np.float32)
    # planted near-dups: same direction (scaled) and tiny perturbation
    rows.append({"vec_id": 100, "embedding": (base3 * 1.7).tolist()})
    rows.append(
        {"vec_id": 101, "embedding": (base17 + 0.01 * rng.randn(8).astype(np.float32)).tolist()}
    )
    from textextract_ray.stages.dedup import semantic_duplicate_assignments

    pairs = semantic_duplicate_assignments(
        rd.from_items(rows), "embedding", "vec_id", threshold=0.97, n_centroids=4
    ).to_pandas()
    assignments = dict(zip(pairs["id"], pairs["keep_id"]))
    assert assignments.get(100) == 3
    assert assignments.get(101) == 17


def test_ngram_jaccard_pairs(doc_ds):
    from textextract_ray.stages.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(doc_ds, "text", "doc_id", threshold=0.5).to_pandas()
    got = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in got and (0, 4) in got and (1, 4) in got
    exact = pairs[(pairs.id_a == 0) & (pairs.id_b == 1)]
    assert exact["jaccard"].iloc[0] == 1.0


def test_dedup_is_partitioning_invariant(doc_ds):
    from textextract_ray.stages.dedup import minhash_duplicate_assignments

    a = minhash_duplicate_assignments(doc_ds, "text", "doc_id", threshold=0.5).to_pandas()
    b = minhash_duplicate_assignments(
        doc_ds.repartition(5), "text", "doc_id", threshold=0.5
    ).to_pandas()
    pd.testing.assert_frame_equal(
        a.sort_values("id").reset_index(drop=True),
        b.sort_values("id").reset_index(drop=True),
    )


def test_group_all_pairs_matches_per_group_reference():
    """`_group_all_pairs` (the vectorized all-groups-at-once pair
    builder behind the MinHash/incremental LSH candidate stage) must
    emit exactly the per-group reference semantics: sort by `order`,
    drop duplicate ids (first occurrence wins), cap, then all in-group
    (earlier, later) pairs — later side only when droppable."""
    import numpy as np
    import pandas as pd

    from textextract_ray.stages.dedup import _group_all_pairs

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "band_id": rng.integers(0, 5, 2000),
            "band_key": rng.integers(0, 50, 2000).astype(str),
            "id": rng.integers(0, 500, 2000),
            "_rank": rng.integers(0, 2, 2000).astype(np.int32),
        }
    )

    def reference(df, order, droppable, cap):
        outs = []
        d2 = df[df.duplicated(["band_id", "band_key"], keep=False)]
        for _, g in d2.groupby(["band_id", "band_key"], sort=True):
            g = g.sort_values(order, kind="stable").drop_duplicates("id").head(cap)
            ids = g["id"].to_numpy()
            lo, hi = np.triu_indices(len(ids), k=1)
            if droppable:
                keep = (g["_rank"].to_numpy() > 0)[hi]
                outs.append(
                    pd.DataFrame({"id": ids[hi[keep]], "keep_id": ids[lo[keep]]})
                )
            else:
                outs.append(pd.DataFrame({"id": ids[hi], "keep_id": ids[lo]}))
        if not outs:
            return pd.DataFrame({"id": [], "keep_id": []})
        return pd.concat(outs, ignore_index=True)

    cases = [
        (["id"], False, 1024),
        (["id"], False, 3),  # exercises the cap filter
        (["_rank", "id"], True, 1024),
        (["_rank", "id"], True, 4),
    ]
    for order, drop, cap in cases:
        want = reference(df, order, drop, cap)
        got = _group_all_pairs(
            df,
            ["band_id", "band_key"],
            cap=cap,
            order=order,
            droppable_col="_rank" if drop else None,
        )
        assert sorted(map(tuple, want.to_numpy())) == sorted(
            map(tuple, got.to_numpy())
        ), (order, drop, cap)

    # empty input and all-singleton input both give a typed empty frame
    for empty_in in (df.iloc[:0], df.drop_duplicates(["band_id", "band_key"])):
        out = _group_all_pairs(
            empty_in.drop_duplicates(["band_id", "band_key"]),
            ["band_id", "band_key"],
        )
        assert len(out) == 0 and list(out.columns) == ["id", "keep_id"]


def test_exact_dedup_arms_and_guards(ray_session):
    """The keys-only loser-scan arm, the past-budget bucketed arm, and
    the duplicate-id guard must all produce the grouped min-id-winner
    answer."""
    import ray.data as rd

    from textextract_ray.stages.dedup import exact_dedup

    rows = [
        {"doc_id": 5, "text": "alpha"},
        {"doc_id": 2, "text": "alpha"},
        {"doc_id": 9, "text": "beta"},
        {"doc_id": 1, "text": "gamma"},
        {"doc_id": 7, "text": "beta"},
    ]
    want = [(1, "gamma"), (2, "alpha"), (7, "beta")]

    def got(**kw):
        out = exact_dedup(rd.from_items(rows), "text", "doc_id", **kw).to_pandas()
        return sorted(zip(out["doc_id"].astype(int), out["text"]))

    assert got() == want  # fold arm
    assert got(fold_budget_rows=2) == want  # forced bucketed arm
    # a zero-row block (as a filter leaves) is dropped, so every block
    # of the result keeps the input schema
    import pyarrow as pa
    import ray

    t = pa.Table.from_pylist(rows)
    out = exact_dedup(rd.from_arrow([t.slice(0, 2), t.slice(0, 0), t.slice(2)]), "text", "doc_id")
    blocks = ray.get(out.to_arrow_refs())
    assert all(b.schema == t.schema for b in blocks), [b.schema for b in blocks]
    assert sorted(zip(out.to_pandas()["doc_id"], out.to_pandas()["text"])) == want
    # no rows at all: an empty result that still has the input schema
    none = exact_dedup(rd.from_arrow([t.slice(0, 0)]), "text", "doc_id")
    assert none.count() == 0 and none.schema().names == ["doc_id", "text"]
    # duplicate ids (one id, two texts) must route to the grouped arm:
    # filter-by-id would over-drop doc 1's surviving text
    dup = rows + [{"doc_id": 1, "text": "alpha"}]
    out = exact_dedup(rd.from_items(dup), "text", "doc_id").to_pandas()
    assert sorted(zip(out["doc_id"].astype(int), out["text"])) == [
        (1, "alpha"),
        (1, "gamma"),
        (7, "beta"),
    ]


def test_bucketed_group_apply_frame_fn_distributed_arm(ray_session):
    """Forcing the past-budget bucketed arm must give the same pairs
    as the driver fold when a `frame_fn` (vectorized all-groups body)
    is used — the frame_fn runs inside map_groups there."""
    import numpy as np
    import ray.data as rd

    from textextract_ray.stages.dedup import (
        _bucketed_group_apply,
        _group_all_pairs,
    )

    rng = np.random.default_rng(11)
    n = 3000
    rows = [
        {
            "band_id": int(b),
            "band_key": f"k{k}",
            "id": int(i),
        }
        for b, k, i in zip(
            rng.integers(0, 4, n), rng.integers(0, 60, n), rng.integers(0, 800, n)
        )
    ]
    ds = rd.from_items(rows).repartition(7)
    fn = lambda df: _group_all_pairs(df, ["band_id", "band_key"])
    a = _bucketed_group_apply(
        ds, ["band_id", "band_key"], None, frame_fn=fn
    ).to_pandas()
    b = _bucketed_group_apply(
        ds, ["band_id", "band_key"], None, frame_fn=fn, fold_budget_rows=10
    ).to_pandas()
    assert len(a) > 0
    assert sorted(map(tuple, a.to_numpy())) == sorted(map(tuple, b.to_numpy()))


def test_minhash_past_budget_arm_matches_driver_arm(ray_session, sf_dir, monkeypatch):
    """With GROUP_APPLY_FOLD_BUDGET_ROWS at 0 (read when the group
    apply runs, not when it was defined) the band rows take the
    bucketed shuffle arm — coarse buckets by ``stable_bucket`` over
    (band_id, band_key bytes) — and the assignments equal the driver
    fold's."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import textextract_ray.stages.dedup as dd
    import textextract_ray.stages.fold as fold_mod
    from textextract_ray.sources import read_table

    batch = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    rows = dd.MinHashBandKeys("text", "doc_id")(batch.slice(0, 50))
    assert rows["band_key"].type == pa.binary(32)
    assert rows.num_rows % 16 == 0 and rows.num_rows > 0

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    driver = dd.minhash_duplicate_assignments(ds, "text", "doc_id", threshold=0.6).to_pandas()
    assert len(driver) > 0

    folds = []
    orig = fold_mod.fold_partials

    def spy(*a, **k):
        out = orig(*a, **k)
        folds.append(out)
        return out

    monkeypatch.setattr(fold_mod, "fold_partials", spy)
    monkeypatch.setattr(dd, "GROUP_APPLY_FOLD_BUDGET_ROWS", 0)
    shuffled = dd.minhash_duplicate_assignments(ds, "text", "doc_id", threshold=0.6).to_pandas()
    assert folds == [None]  # the band rows did not fold on the driver
    pd.testing.assert_frame_equal(
        driver.sort_values("id").reset_index(drop=True),
        shuffled.sort_values("id").reset_index(drop=True),
    )


def test_minhash_string_ids_past_budget_arm(ray_session, monkeypatch):
    """String doc ids through the past-budget map_groups arm: buckets
    that find zero pairs must emit string-typed empty blocks (an int64
    empty would break schema unification against the pair-bearing
    string blocks)."""
    import ray.data as rd

    import textextract_ray.stages.fold as fold_mod
    from textextract_ray.stages.dedup import minhash_duplicate_assignments

    texts = [
        " ".join(f"w{i}x{j}" for j in range(40)) for i in range(60)
    ]
    texts[7] = texts[3] + " tail"  # one near-dup pair
    rows = [{"doc_id": f"doc-{i:03d}", "text": t} for i, t in enumerate(texts)]
    ds = rd.from_items(rows).repartition(6)

    monkeypatch.setattr(
        fold_mod, "fold_partials", lambda *a, **k: None
    )  # force the bucketed map_groups arm everywhere
    pairs = minhash_duplicate_assignments(ds, "text", "doc_id").to_pandas()
    assert len(pairs) == 1
    assert set(pairs.iloc[0][["id", "keep_id"]]) == {"doc-003", "doc-007"}
    assert pairs["id"].dtype == object


def test_exact_dedup_null_ids(ray_session):
    """Null ids route to the grouped arm and must not crash: min
    non-null id wins its hash group; an all-null-id group keeps
    exactly one row."""
    import pandas as pd
    import ray.data as rd

    from textextract_ray.stages.dedup import exact_dedup

    rows = pd.DataFrame(
        {
            "doc_id": pd.array([1, None, 3, None, None], dtype="Int64"),
            "text": ["aaa", "bbb", "aaa", "bbb", "ccc"],
        }
    )
    out = exact_dedup(rd.from_pandas(rows), "text", "doc_id").to_pandas()
    assert sorted(out["text"]) == ["aaa", "bbb", "ccc"]
    assert int(out.loc[out["text"] == "aaa", "doc_id"].iloc[0]) == 1
