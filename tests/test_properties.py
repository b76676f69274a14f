"""Property-based tests (hypothesis): the total-function and
determinism guarantees hold for arbitrary inputs, not just fixtures."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textextract_ray.functions import text as tx
from textextract_ray.oracle import extract_document
from textextract_ray.schemas import STATUSES


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_extract_total_and_deterministic(blob):
    a = extract_document(blob)
    b = extract_document(blob)
    assert a.status in STATUSES
    assert a.text == b.text and a.spans == b.spans and a.status == b.status


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=2048))
def test_extract_spans_index_into_text(s):
    html = f'<html><head><meta charset="utf-8"></head><body><article><p>{s}</p></article></body></html>'
    res = extract_document(html.encode("utf-8"))
    joined = "\n\n".join(res.text[sp["start"] : sp["end"]] for sp in res.spans)
    assert joined == res.text


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=500))
def test_token_count_matches_ascii_split(s):
    import re

    got = tx.token_count(pa.array([s])).to_pylist()[0]
    # pinned semantics: ASCII whitespace only (RE2 \s)
    assert got == len(re.findall(r"[^\t\n\f\r ]+", s))


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=300))
def test_minhash_signature_stable_shape(s):
    a, b = tx.minhash_params(32)
    sig1 = tx.minhash_signature(tx.shingle_hashes(s), a, b)
    sig2 = tx.minhash_signature(tx.shingle_hashes(s), a, b)
    assert sig1.shape == (32,)
    assert (sig1 == sig2).all()
    keys = tx.band_keys(sig1[None, :], bands=8)
    assert keys.type == pa.binary(32) and len(keys) == 8
    assert keys.equals(tx.band_keys(sig2[None, :], bands=8))
    assert keys.to_pylist() == [sig1[4 * i : 4 * (i + 1)].tobytes() for i in range(8)]


def _shingles_per_doc(text, k):
    """Per-doc reference for ``batch_shingle_hashes``: the token
    hashes of one doc combined k at a time (all n at once when n < k)."""
    from textextract_ray.functions.scalar import hash_utf8

    toks = (text or "").split()
    if not toks:
        return np.empty(0, dtype=np.uint64)
    h = hash_utf8(pa.array(toks, pa.string()), seed=41)
    kk = min(k, len(h))
    m = len(h) - kk + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(kk):
        acc = acc * tx._SHINGLE_B + h[j : j + m]
    return acc


# empty, whitespace-only, and docs of 1..7 tokens, so n < k, n == k
# and n > k all occur for every k drawn
_docs = st.one_of(
    st.none(),
    st.sampled_from(["", " ", "\t\n  "]),
    st.lists(st.sampled_from(["a", "bb", "a", "ccc", "dé"]), max_size=7).map(" ".join),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_docs, max_size=12), st.sampled_from([1, 2, 3, 5]))
def test_batch_shingle_hashes_equal_per_doc(texts, k):
    got = tx.batch_shingle_hashes(texts, k)
    assert len(got) == len(texts)
    for g, t in zip(got, texts):
        assert g.dtype == np.uint64
        assert g.tobytes() == _shingles_per_doc(t, k).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40),
        max_size=15,
    ),
    st.integers(min_value=1, max_value=90),
)
def test_minhash_signatures_batch_equal_per_doc(docs, budget):
    """Chunks of ``budget`` shingles cut the batch at arbitrary doc
    boundaries (and single docs longer than a chunk); every row is
    still the per-doc signature, byte for byte."""
    a, b = tx.minhash_params(16)
    hashes = [np.array(d, dtype=np.uint64) for d in docs]
    got = tx.minhash_signatures_batch(hashes, a, b, shingle_budget=budget)
    assert got.shape == (len(docs), 16)
    for row, h in zip(got, hashes):
        assert row.tobytes() == tx.minhash_signature(h, a, b).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.datetimes(
                min_value=datetime(1700, 1, 1),
                max_value=datetime(2250, 12, 31),
            ),
        ),
        max_size=20,
    ),
    st.sampled_from(["s", "ms", "us", "ns"]),
    st.sampled_from([None, "UTC", "America/New_York", "Asia/Kolkata", "Pacific/Chatham"]),
)
@example(
    [datetime(1960, 2, 29, 23, 59, 59, 999999),
     None, datetime(2024, 2, 29)],
    "us",
    None,
)
def test_date_bucket_equals_strftime(values, unit, tz):
    """The date32 cast gives strftime's day strings: pre-1970
    instants floor to their day, NULL stays NULL, Feb 29 survives, and
    a tz-aware column buckets by its local day in both."""
    import pyarrow.compute as pc

    from textextract_ray.functions.scalar import date_bucket

    col = pa.array(values, pa.timestamp(unit))
    if tz is not None:
        col = col.cast(pa.timestamp(unit, tz=tz))
    got = date_bucket(col)
    assert got.type == pa.string()
    assert got.equals(pc.strftime(col, format="%Y-%m-%d"))


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=300))
def test_simhash_stable(s):
    assert tx.simhash64(s) == tx.simhash64(s)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=20))
def test_popcount_matches_bin(vals):
    arr = np.array(vals, dtype=np.uint64)
    expect = [bin(v).count("1") for v in vals]
    assert tx.popcount64(arr).tolist() == expect


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=800))
def test_split_sentences_total_and_lossless_tokens(s):
    """Splitter totality + conservation: rejoining the sentences with
    single spaces preserves the non-whitespace token sequence."""
    sents = tx.split_sentences(pa.array([s])).to_pylist()[0]
    assert isinstance(sents, list) and len(sents) >= 1
    assert " ".join(" ".join(sents).split()) == " ".join(s.split())


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=500))
def test_compression_ratio_bounds(s):
    r = tx.compression_ratio(pa.array([s])).to_pylist()[0]
    if s:
        assert 0.0 < r  # zlib never emits zero bytes for nonempty input
    else:
        assert r == 0.0


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=2048))
def test_extract_tables_total_property(blob):
    from textextract_ray.tables import extract_tables

    tables = extract_tables(blob)
    assert isinstance(tables, list)
    for t in tables:
        assert len(t["rows"]) == len(t["header_rows"])
        assert all(isinstance(c, str) for row in t["rows"] for c in row)


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=400))
def test_dhash_is_deterministic_and_valid(s):
    """dhash over arbitrary synthetic pixels: same pixels, same hash."""
    import numpy as np

    from textextract_ray.imageops import dhash64

    seed = abs(hash(s)) % (2**32)
    rng = np.random.RandomState(seed)
    px = rng.randint(0, 256, (12, 9, 3), dtype=np.uint8)
    h = dhash64(px)
    assert 0 <= h < 2**64
    assert dhash64(px) == h


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 3),          # band_id
            st.integers(0, 6),          # band_key (stringified)
            st.integers(0, 12),         # id (small domain -> collisions)
            st.booleans(),              # droppable rank
        ),
        max_size=60,
    ),
    cap=st.integers(1, 8),
    use_rank=st.booleans(),
)
def test_group_all_pairs_matches_reference_property(rows, cap, use_rank):
    """`_group_all_pairs` == the per-group sort/dedup/cap/triu
    reference for ARBITRARY group shapes, caps, and droppable masks —
    the vectorized candidate-pair kernel behind the MinHash stages."""
    import pandas as pd

    from textextract_ray.stages.dedup import _group_all_pairs

    df = pd.DataFrame(
        {
            "band_id": [r[0] for r in rows],
            "band_key": [f"k{r[1]}" for r in rows],
            "id": [r[2] for r in rows],
            "_rank": [int(r[3]) for r in rows],
        }
    )
    order = ["_rank", "id"] if use_rank else ["id"]
    cols = ["band_id", "band_key"]

    outs = []
    d2 = df[df.duplicated(cols, keep=False)]
    for _, g in d2.groupby(cols, sort=True):
        g = g.sort_values(order, kind="stable").drop_duplicates("id").head(cap)
        ids = g["id"].to_numpy()
        lo, hi = np.triu_indices(len(ids), k=1)
        if use_rank:
            keep = (g["_rank"].to_numpy() > 0)[hi]
            outs.append(
                pd.DataFrame({"id": ids[hi[keep]], "keep_id": ids[lo[keep]]})
            )
        else:
            outs.append(pd.DataFrame({"id": ids[hi], "keep_id": ids[lo]}))
    want = (
        pd.concat(outs, ignore_index=True)
        if outs
        else pd.DataFrame({"id": [], "keep_id": []})
    )
    got = _group_all_pairs(
        df,
        cols,
        cap=cap,
        order=order,
        droppable_col="_rank" if use_rank else None,
    )
    assert sorted(map(tuple, want.to_numpy())) == sorted(
        map(tuple, got.to_numpy())
    )
