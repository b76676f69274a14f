"""Exact-substring dedup (Lee et al. 2021 ExactSubstr at k-gram
resolution): parity against a brute-force Python reference oracle on a
planted corpus, broadcast/co-group path equivalence, layout invariance,
span-merge behavior for runs longer than k, and the positional
gram-hash front-end.

The driver corpus has no repeated k-token runs, so the operator is
pinned here with planted duplicates instead of a gate slot (same
approach as paragraph_dedup_ds / the embedding near-dup recall tests).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

K = 5
_TOK = re.compile(r"\S+")


def _words(tag: str, n: int) -> str:
    return " ".join(f"{tag}{i}" for i in range(n))


RUN = _words("shared", 12)  # 12-token duplicated run (> 2k) -> merged cut


def _corpus() -> pd.DataFrame:
    rows = [
        # doc 3 holds the first occurrence of RUN (smallest doc_id)
        (3, _words("athree", 6) + " " + RUN + " " + _words("ztail", 4)),
        # doc 5 repeats RUN -> the whole 12-token run is cut as one span
        (5, _words("bfive", 3) + " " + RUN + " " + _words("bmore", 6)),
        # doc 7: in-doc repeat of its own 6-token run (second copy cut)
        (7, _words("csev", 6) + " filler1 filler2 " + _words("csev", 6)),
        # doc 9: shorter than k tokens -> never matches, byte-identical
        (9, "tiny doc here"),
        # doc 11: every token covered by dup grams -> doc vanishes
        (11, RUN),
        # doc 13: untouched doc with weird whitespace -> byte-identical
        (13, "  lead\t tab\n newline  double  " + _words("dthirteen", 5)),
        # doc 15: empty text -> dropped (drop_empty)
        (15, ""),
        # doc 17: unique text, untouched
        (17, _words("esevteen", 9)),
    ]
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def _oracle(df: pd.DataFrame, k: int = K) -> pd.DataFrame:
    """Brute-force reference: dict of gram -> first occurrence in
    (doc_id, gram_idx) order; later occurrences cut token span
    [gi, gi+k) with the segment rule (token i owns chars from its
    start to the next token's start; last token to end-of-string)."""
    losers: dict[int, set[int]] = {}
    first: dict[tuple, tuple] = {}
    for doc_id, text in sorted(zip(df.doc_id, df.text)):
        toks = (text or "").split()
        for gi in range(len(toks) - k + 1):
            gram = tuple(toks[gi : gi + k])
            if gram in first:
                losers.setdefault(doc_id, set()).add(gi)
            else:
                first[gram] = (doc_id, gi)
    rows = []
    for doc_id, text in zip(df.doc_id, df.text):
        text = text or ""
        cut = losers.get(doc_id, set())
        starts = [m.start() for m in _TOK.finditer(text)]
        ntok = len(starts)
        kill = [False] * ntok
        for g in cut:
            for j in range(g, min(g + k, ntok)):
                kill[j] = True
        n = sum(kill)
        if not cut:
            new = text
        elif n == ntok:
            new = ""
        else:
            seg_end = starts[1:] + [len(text)]
            new = "".join(
                text[starts[j] : seg_end[j]] for j in range(ntok) if not kill[j]
            )
        if new == "":
            continue
        rows.append((doc_id, new, n))
    out = pd.DataFrame(rows, columns=["doc_id", "text", "n_dropped"])
    out["n_dropped"] = out["n_dropped"].astype("int32")
    return out.sort_values("doc_id").reset_index(drop=True)


def _run(df: pd.DataFrame, **kw) -> pd.DataFrame:
    import ray.data as rd

    from textextract_ray.pipelines.textops import exact_substring_dedup_ds

    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    out = exact_substring_dedup_ds(ds, k=K, **kw).to_pandas()
    out["n_dropped"] = out["n_dropped"].astype("int32")
    return out.sort_values("doc_id").reset_index(drop=True)


def test_matches_bruteforce_oracle(ray_session):
    df = _corpus()
    got = _run(df)
    want = _oracle(df)
    pd.testing.assert_frame_equal(got, want)
    # the planted structure actually exercised every path
    assert 11 not in set(got.doc_id)  # fully-duplicated doc vanished
    assert got.set_index("doc_id").loc[9, "text"] == "tiny doc here"
    assert got.set_index("doc_id").loc[13, "n_dropped"] == 0
    # untouched doc with irregular whitespace is byte-identical
    assert got.set_index("doc_id").loc[13, "text"] == df.set_index("doc_id").loc[13, "text"]


def test_long_run_merges_into_one_contiguous_cut(ray_session):
    """A duplicated run longer than k is covered by overlapping k-grams
    merging into ONE cut: doc 5 loses exactly the 12 RUN tokens and
    keeps its unique prefix+suffix contiguously."""
    df = _corpus()
    got = _run(df).set_index("doc_id")
    assert int(got.loc[5, "n_dropped"]) == 12
    assert got.loc[5, "text"].split() == (
        _words("bfive", 3) + " " + _words("bmore", 6)
    ).split()
    # in-doc repeat: second csev copy cut, first kept
    assert int(got.loc[7, "n_dropped"]) == 6
    assert got.loc[7, "text"].split() == (_words("csev", 6) + " filler1 filler2").split()


def test_cogroup_path_matches_broadcast(ray_session):
    df = _corpus()
    a = _run(df)  # broadcast (drops well under default budget)
    b = _run(df, broadcast_budget=0)  # force co-group fallback
    pd.testing.assert_frame_equal(a, b)


def test_layout_invariance(ray_session):
    import ray.data as rd

    from textextract_ray.pipelines.textops import exact_substring_dedup_ds

    df = _corpus()
    want = _oracle(df)
    shuffled = df.sample(frac=1.0, random_state=7).reset_index(drop=True)
    ds = rd.from_arrow(
        pa.Table.from_pandas(shuffled, preserve_index=False)
    ).repartition(5)
    got = exact_substring_dedup_ds(ds, k=K).to_pandas()
    got["n_dropped"] = got["n_dropped"].astype("int32")
    got = got.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_type_contract(ray_session):
    import ray.data as rd

    from textextract_ray.pipelines.textops import exact_substring_dedup_ds

    bad = pd.DataFrame({"doc_id": ["a", "b"], "text": ["x y z", "x y z"]})
    ds = rd.from_arrow(pa.Table.from_pandas(bad, preserve_index=False))
    with pytest.raises(Exception, match="must be integer"):
        exact_substring_dedup_ds(ds, k=2).to_pandas()


def test_gram_position_hashes():
    from textextract_ray.functions.text import batch_gram_position_hashes

    texts = ["a b c d", "a b c", "x", "", "a b c d e"]
    d, gi, h1, h2 = batch_gram_position_hashes(texts, 3)
    # doc 0: positions 0,1; doc 1: position 0; doc 2/3: too short;
    # doc 4: positions 0,1,2 — and no gram spans a doc boundary
    assert d.tolist() == [0, 0, 1, 4, 4, 4]
    assert gi.tolist() == [0, 1, 0, 0, 1, 2]
    # identical grams hash identically across docs ("a b c")
    assert h1[0] == h1[2] and h2[0] == h2[2]
    # different grams differ on at least one of the two hashes
    assert (h1[0], h2[0]) != (h1[1], h2[1])
    # whitespace form does not matter, token sequence does
    d2, gi2, h1b, h2b = batch_gram_position_hashes(["a  b\tc d"], 3)
    assert h1b[0] == h1[0] and h2b[0] == h2[0]
    # empty batch / all-short batch
    for case in ([], ["", "x y"]):
        d3, gi3, a, b = batch_gram_position_hashes(case, 3)
        assert len(d3) == len(gi3) == len(a) == len(b) == 0
