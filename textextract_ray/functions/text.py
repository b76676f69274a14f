"""Text-analysis + dedup primitives for training-data pipelines.

Language-ID (marker-n-gram heuristic), quality scoring, token counting,
document fingerprinting, shingling, MinHash, SimHash. All kernels are
batch-level (Arrow/pandas/numpy in, Arrow out) so they drop into
``map_batches``; hashing uses stable hash functions only (md5 for
content fingerprints, the repo-owned stable hash via ``_flat_token_hashes``
for the sketch family) — never Python's salted ``hash()`` — so results are
identical across Ray worker processes (the byte-identity discipline of
the extraction oracle applied to sketches).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# --- token counting ----------------------------------------------------------

def token_count(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Whitespace token count (count of non-whitespace runs), fully
    vectorized in Arrow; 0 for empty/whitespace-only strings.

    Pinned semantics: ASCII whitespace only (space, \\t, \\n, \\r,
    \\f — RE2's ``\\s``). Unicode spaces (NBSP, U+2028, ...) count as
    token characters, unlike Python's ``str.split()``."""
    return pc.count_substring_regex(col, r"\S+")


# re.ASCII pins \s to [ \t\n\r\f\v] so Unicode whitespace (NBSP, ...)
# counts as punctuation here, matching the RE2 [:space:] oracle exactly.
_BPE_ISH = re.compile(r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]", re.ASCII)

def bpeish_token_count(texts: list) -> np.ndarray:
    """BPE-ish token proxy: letter runs + single digits + punctuation
    marks each count once (a public GPT-2-style pre-tokenizer shape)."""
    return np.fromiter(
        (len(_BPE_ISH.findall(t or "")) for t in texts), dtype=np.int64, count=len(texts)
    )


# --- fingerprints ------------------------------------------------------------

def md5_hex(texts: list) -> list:
    """Content fingerprint as hex md5 — byte-parity with DuckDB md5()."""
    return [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]


def rolling_fingerprint(texts: list, window: int = 4, base: int = 1_000_003) -> np.ndarray:
    """Rolling polynomial hash over whitespace tokens: the min of all
    ``window``-gram hashes (a winnowing-style document fingerprint,
    Schleimer et al. SIGMOD 2003). Token hashing is one shared C pass
    (``_flat_token_hashes``, the repo-owned stable hash — was a
    per-token crc32 Python loop); the windowed combine is ``window``
    vector ops per doc."""
    h, offs = _flat_token_hashes(texts)
    out = np.empty(len(texts), dtype=np.uint64)
    mod = np.uint64((1 << 61) - 1)
    b = np.uint64(base)
    for i in range(len(texts)):
        hs = h[offs[i] : offs[i + 1]] % mod
        n = len(hs)
        if n == 0:
            out[i] = 0
            continue
        w = min(window, n)
        acc = np.zeros(n - w + 1, dtype=np.uint64)
        for k in range(w):
            acc = (acc * b + hs[k : k + len(acc)]) % mod
        out[i] = acc.min()
    return out


# --- language ID (marker-word / script heuristic) ----------------------------

_LANG_MARKERS = {
    "en": r"\b(the|and|of|to|in|is|that|for|with|was)\b",
    "de": r"\b(der|die|das|und|ist|nicht|mit|ein|eine|zu|für)\b|[äöüß]",
    "fr": r"\b(le|la|les|et|est|une?|des|du|dans|pour|que)\b|[éèêàçù]",
    "es": r"\b(el|la|los|las|y|es|una?|del|en|que|por|para)\b|[ñ¿¡]|ción\b",
}
_CJK = r"[一-鿿]"


def lang_id(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Heuristic language ID: vectorized marker-pattern counts per
    language, CJK-script override, argmax; 'und' when nothing matches
    (nulls count as empty → 'und'). One Arrow regex pass per language —
    no per-row Python."""
    col = pc.fill_null(col, "")
    lower = pc.utf8_lower(col)
    n = len(lower)
    scores = np.zeros((len(_LANG_MARKERS), n), dtype=np.int64)
    langs = list(_LANG_MARKERS)
    for i, lang in enumerate(langs):
        scores[i] = pc.count_substring_regex(lower, _LANG_MARKERS[lang]).to_numpy(
            zero_copy_only=False
        )
    cjk = pc.count_substring_regex(col, _CJK).to_numpy(zero_copy_only=False)
    best = scores.argmax(axis=0)
    best_score = scores.max(axis=0)
    out = np.array(langs, dtype=object)[best]
    out[best_score == 0] = "und"
    out[cjk > (best_score * 2)] = "zh"
    return pa.array(out, pa.string())


# --- quality scoring ---------------------------------------------------------

_STOPWORDS_RE = r"\b(the|and|of|to|in|a|is|that|for|with)\b"

def quality_features(col: pa.ChunkedArray | pa.Array) -> pa.Table:
    """Gopher/C4-style quality signals, fully vectorized:
    n_chars, n_tokens, mean_token_len, stop_ratio, punct_ratio,
    upper_ratio, and a composite quality_score in [0, 1]."""
    n_chars = pc.utf8_length(col).cast(pa.float64())
    # THE engine token definition (token_count: \S+ runs) — NOT
    # utf8_split_whitespace, which emits empty boundary tokens and
    # diverges from both token_stats and the RE2 SQL oracle
    n_tokens = token_count(col).cast(pa.float64())
    safe_tokens = pc.max_element_wise(n_tokens, 1.0)
    safe_chars = pc.max_element_wise(n_chars, 1.0)
    # mean token length = (chars - spaces) / tokens
    n_spaces = pc.count_substring_regex(col, r"\s").cast(pa.float64())
    mean_tok = pc.divide(pc.subtract(n_chars, n_spaces), safe_tokens)
    stop = pc.count_substring_regex(pc.utf8_lower(col), _STOPWORDS_RE).cast(pa.float64())
    stop_ratio = pc.divide(stop, safe_tokens)
    punct = pc.count_substring_regex(col, r"[^\w\s]").cast(pa.float64())
    punct_ratio = pc.divide(punct, safe_chars)
    upper = pc.count_substring_regex(col, r"[A-Z]").cast(pa.float64())
    upper_ratio = pc.divide(upper, safe_chars)

    nc = n_chars.to_numpy(zero_copy_only=False)
    mt = mean_tok.to_numpy(zero_copy_only=False)
    sr = stop_ratio.to_numpy(zero_copy_only=False)
    pr = punct_ratio.to_numpy(zero_copy_only=False)
    ur = upper_ratio.to_numpy(zero_copy_only=False)
    score = (
        np.clip(nc / 500.0, 0, 1) * 0.25              # enough text
        + ((mt >= 3) & (mt <= 10)).astype(np.float64) * 0.25  # plausible word lengths
        + np.clip(sr / 0.2, 0, 1) * 0.25               # natural-language stopword rate
        + (1.0 - np.clip(pr / 0.3, 0, 1)) * 0.15       # not symbol soup
        + (1.0 - np.clip(ur / 0.3, 0, 1)) * 0.10       # not shouting
    )
    return pa.table(
        {
            "n_chars": n_chars.cast(pa.int64()),
            "n_tokens": n_tokens.cast(pa.int64()),
            "mean_token_len": mean_tok,
            "stop_ratio": stop_ratio,
            "punct_ratio": punct_ratio,
            "upper_ratio": upper_ratio,
            "quality_score": pa.array(score, pa.float64()),
        }
    )


def repetition_features(texts: list) -> pa.Table:
    """Gopher-style within-document repetition signals (Rae et al.
    2021, arXiv:2112.11446, table A1 filters — public paper): for
    n ∈ (2, 3, 4) the fraction of n-gram occurrences that repeat an
    earlier occurrence (``dup_{n}gram_frac``), plus the share of all
    bigram occurrences taken by the single most frequent bigram
    (``top_bigram_frac``). Repetitive boilerplate/spam scores high;
    clean prose is near 0. One shared token-hash pass feeds all three
    n-gram sizes (hash-based: a 2^-64 collision folds two n-grams
    together — irrelevant at filter precision). Docs with fewer than
    n tokens score 0 for that n."""
    h, offs = _flat_token_hashes(texts)
    n_docs = len(texts)
    feats = {n: np.zeros(n_docs, dtype=np.float64) for n in (2, 3, 4)}
    top_bi = np.zeros(n_docs, dtype=np.float64)
    for d in range(n_docs):
        hd = h[offs[d] : offs[d + 1]]
        for n in (2, 3, 4):
            m = len(hd) - n + 1
            if m < 1:
                continue
            acc = np.zeros(m, dtype=np.uint64)
            for j in range(n):
                acc = acc * _SHINGLE_B + hd[j : j + m]
            uniq, counts = np.unique(acc, return_counts=True)
            feats[n][d] = 1.0 - len(uniq) / m
            if n == 2:
                top_bi[d] = counts.max() / m
    return pa.table(
        {
            "dup_2gram_frac": pa.array(feats[2], pa.float64()),
            "dup_3gram_frac": pa.array(feats[3], pa.float64()),
            "dup_4gram_frac": pa.array(feats[4], pa.float64()),
            "top_bigram_frac": pa.array(top_bi, pa.float64()),
        }
    )


def ngram_hash_sets(texts: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-document DISTINCT n-gram hash sets from the shared token-hash
    pass (same rolling polynomial as ``repetition_features``, so one
    hash family covers repetition AND contamination checks). Returns
    (flat uint64 hash array, int64 offsets) with doc d's sorted unique
    hashes at ``flat[offs[d]:offs[d+1]]``; a doc with fewer than n
    tokens owns an empty slice. Hash-based: a 2^-64 collision folds two
    n-grams together (the same accepted trade as the SQL oracles
    document)."""
    h, offs = _flat_token_hashes(texts)
    chunks, out_offs = [], np.zeros(len(texts) + 1, dtype=np.int64)
    for d in range(len(texts)):
        hd = h[offs[d] : offs[d + 1]]
        m = len(hd) - n + 1
        if m < 1:
            out_offs[d + 1] = out_offs[d]
            continue
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(n):
            acc = acc * _SHINGLE_B + hd[j : j + m]
        u = np.unique(acc)
        chunks.append(u)
        out_offs[d + 1] = out_offs[d] + len(u)
    flat = (
        np.concatenate(chunks) if chunks else np.array([], dtype=np.uint64)
    )
    return flat, out_offs


# --- PII scrubbing -----------------------------------------------------------

# Order is load-bearing: each pattern is counted+replaced on the text
# as scrubbed so far, and the broad phone pattern would otherwise eat
# SSN-shaped and dotted-IP digit runs.
_PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("ssn_like", r"\b\d{3}-\d{2}-\d{4}\b"),
    ("ipv4", r"\b(?:\d{1,3}\.){3}\d{1,3}\b"),
    ("phone", r"\+?\d[\d\s().-]{7,}\d"),
)


def scrub_pii(col: pa.ChunkedArray | pa.Array) -> pa.Table:
    """PII redaction for training corpora: emails, SSN-shaped ids,
    IPv4 addresses, phone-shaped digit runs each replaced by a typed
    placeholder (``<EMAIL>``, ...), with a per-type match count per
    document. Entirely Arrow RE2 kernels (count + replace per type) —
    no per-row Python. Heuristic by design: a recall-oriented scrub
    for corpus hygiene, not a compliance guarantee."""
    scrubbed = pc.fill_null(col, "")
    out_counts = {}
    for name, pat in _PII_PATTERNS:
        out_counts[f"n_{name}"] = pc.count_substring_regex(scrubbed, pat).cast(
            pa.int64()
        )
        scrubbed = pc.replace_substring_regex(
            scrubbed, pat, f"<{name.upper()}>"
        )
    return pa.table({"text_scrubbed": scrubbed, **out_counts})


# --- shingles / MinHash / SimHash -------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)


_SHINGLE_B = np.uint64(1_000_003)


def _flat_token_hashes(texts: list):
    """One vectorized hash pass over every whitespace token of every
    doc in the batch (self-owned repo-stable hash, fixed seed 41 — see
    functions.scalar.hash_utf8). Returns (flat uint64 hashes, doc
    offsets) — the shared front-end for the shingle / simhash /
    rolling-fingerprint sketches."""
    from .scalar import hash_utf8

    toks_per_doc = [(t or "").split() for t in texts]
    lens = np.array([len(t) for t in toks_per_doc], dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(lens)])
    flat = [w for toks in toks_per_doc for w in toks]
    if not flat:
        return np.empty(0, dtype=np.uint64), offs
    return hash_utf8(pa.array(flat, pa.string()), seed=41), offs


def batch_shingle_hashes(texts: list, k: int = 3) -> list:
    """k-token shingle hashes for a whole batch, vectorized: every
    token of every doc is hashed in ONE vectorized pass (repo-owned stable hash, fixed
    seed — process-stable), then consecutive token hashes combine into
    shingle hashes with k vectorized polynomial steps (uint64
    wraparound arithmetic — deterministic, same convention as
    minhash_signature). Replaces a per-shingle blake2b Python loop
    that was the MinHash stage's dominant cost. Returns one uint64
    array per input text (empty for empty/whitespace-only docs;
    a doc with fewer than k tokens yields one shingle of all its
    tokens). The combine runs once over the batch's flat token-hash
    array and each doc gets a slice of it: the arrays are views of
    one shared buffer, so callers must not write to them.

    Round-2 migration: the shingle hash family changed from blake2b
    over joined strings to this combine — MinHash/Jaccard sketch
    VALUES differ from round 1; golden fixtures regenerated via
    tools/make_golden.py (semantic pins in pytest are value-free).
    """
    h, offs = _flat_token_hashes(texts)
    lens = np.diff(offs)
    # window p of the flat array combines tokens p..p+k-1; a doc with
    # n >= k tokens owns windows offs[d] .. offs[d+1]-k (the windows
    # that straddle a doc boundary are computed and never sliced)
    m = max(len(h) - k + 1, 0)
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        acc *= _SHINGLE_B
        acc += h[j : j + m]
    # a doc with 0 < n < k tokens: one shingle of all n, combined the
    # same way over its own tokens, every short doc at once
    short = np.nonzero((lens > 0) & (lens < k))[0]
    short_acc = np.zeros(len(short), dtype=np.uint64)
    for j in range(k - 1):
        has = lens[short] > j
        short_acc[has] = short_acc[has] * _SHINGLE_B + h[offs[short[has]] + j]
    short_of = dict(zip(short.tolist(), short_acc[:, None]))
    empty = np.empty(0, dtype=np.uint64)
    return [
        acc[lo : hi - k + 1] if hi - lo >= k else short_of.get(d, empty)
        for d, (lo, hi) in enumerate(zip(offs[:-1].tolist(), offs[1:].tolist()))
    ]


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """k-token shingles → stable 64-bit hashes (uint64). Single-doc
    convenience over ``batch_shingle_hashes`` (same hash family)."""
    return batch_shingle_hashes([text], k)[0]


def minhash_params(num_perm: int = 64, seed: int = 7) -> tuple:
    """Deterministic (a, b) permutation parameters (universal hashing)."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, size=num_perm).astype(np.uint64)
    b = rng.randint(0, (1 << 61) - 1, size=num_perm).astype(np.uint64)
    return a, b


def minhash_signature(hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MinHash signature (Broder 1997): min over (a*h + b) mod p per
    permutation. Vectorized perms × shingles."""
    if len(hashes) == 0:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    h = hashes % _MERSENNE
    vals = (a[:, None] * h[None, :] + b[:, None]) % _MERSENNE
    return vals.min(axis=1)


def minhash_signatures_batch(
    hash_list: list, a: np.ndarray, b: np.ndarray, *, shingle_budget: int = 32_768
) -> np.ndarray:
    """MinHash signatures for a whole batch of docs at once: [D, P]
    uint64, row d == ``minhash_signature(hash_list[d], a, b)`` exactly
    (same uint64 elementwise ops, same wraparound). Docs are cut into
    chunks of about ``shingle_budget`` concatenated shingles; each
    chunk's (a·h+b) mod p is computed in place in ONE preallocated
    [P, chunk] buffer (16 MB at 64 perms and the default budget; a
    doc longer than the budget gets a chunk, and a buffer, of its own)
    and reduced per doc with one ``np.minimum.reduceat``. Empty docs
    get the all-MAX signature, matching the per-doc function."""
    P = len(a)
    D = len(hash_list)
    out = np.full((D, P), np.iinfo(np.uint64).max, dtype=np.uint64)
    lens = np.array([len(h) for h in hash_list], dtype=np.int64)
    live = np.nonzero(lens > 0)[0]
    if len(live) == 0:
        return out
    buf = np.empty(P * max(shingle_budget, int(lens.max())), dtype=np.uint64)
    a_col, b_col = a[:, None], b[:, None]
    i = 0
    while i < len(live):
        j = i
        tot = 0
        while j < len(live) and (tot == 0 or tot + lens[live[j]] <= shingle_budget):
            tot += lens[live[j]]
            j += 1
        idx = live[i:j]
        flat = np.concatenate([hash_list[d] for d in idx]).astype(np.uint64)
        flat %= _MERSENNE
        vals = buf[: P * tot].reshape(P, tot)
        np.multiply(a_col, flat[None, :], out=vals)
        np.add(vals, b_col, out=vals)
        np.remainder(vals, _MERSENNE, out=vals)
        starts = np.concatenate(([0], np.cumsum(lens[idx])[:-1]))
        out[idx] = np.minimum.reduceat(vals, starts, axis=1).T
        i = j
    return out


def band_keys(sigs: np.ndarray, bands: int) -> pa.FixedSizeBinaryArray:
    """LSH band keys for [D, P] signatures: doc-major, band-minor
    (row ``d * bands + band``), each key the band's exact signature
    bytes as ``fixed_size_binary(8 * rows)``, rows = P // bands (a
    remainder of P is unused). Docs sharing any (band, key) are
    near-dup candidates (Leskovec/Rajaraman/Ullman, Mining of Massive
    Datasets ch.3). The keys are the signature matrix's own bytes (no
    copy when ``bands`` divides P): no per-doc loop, no hash."""
    rows = sigs.shape[1] // bands
    keys = np.ascontiguousarray(sigs[:, : bands * rows], dtype=np.uint64)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(8 * rows), len(keys) * bands, [None, pa.py_buffer(keys)]
    )


def batch_simhash64(texts: list) -> np.ndarray:
    """64-bit SimHash (Charikar 2002) over whitespace tokens for a
    whole batch: one shared token-hash pass, one ±1-bit int8 matrix
    over ALL tokens (8 B/token — the only large transient), per-doc
    bit votes via a sliced sum per doc (a handful of C reductions per
    doc; a full int64 cumsum matrix would cost 64× more transient
    memory per batch), sign → packed uint64. Empty/whitespace-only
    docs hash to 0."""
    h, offs = _flat_token_hashes(texts)
    n = len(texts)
    if len(h) == 0:
        return np.zeros(n, dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    pm = (((h[:, None] >> shifts[None, :]) & 1).astype(np.int8) * 2 - 1)
    v = np.zeros((n, 64), dtype=np.int64)
    for i in range(n):
        if offs[i] < offs[i + 1]:
            v[i] = pm[offs[i] : offs[i + 1]].sum(axis=0, dtype=np.int64)
    return ((v > 0).astype(np.uint64) << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def simhash64(text: str) -> int:
    """Single-doc convenience over ``batch_simhash64`` (same values)."""
    return int(batch_simhash64([text])[0])


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint64 arrays (numpy<2 lacks
    bitwise_count): byte-table lookup over the little-endian view."""
    bytes_view = np.ascontiguousarray(x, dtype=np.uint64).view(np.uint8)
    return _POP8[bytes_view].reshape(*x.shape, 8).sum(axis=-1).astype(np.int64)


def hamming64(a: np.ndarray, b: int) -> np.ndarray:
    """Vectorized Hamming distance of a uint64 array against one value."""
    return popcount64(a ^ np.uint64(b))


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / max(1, len(a | b))


def compression_ratio(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
    """zlib-deflate size / raw size per document (level 6) — the
    RefinedWeb/Dolma-family gibberish-vs-repetition signal: heavily
    repeated boilerplate compresses to a small fraction, natural prose
    sits around 0.3-0.6, random noise near 1.0. Empty/null docs report
    0.0. Per-row zlib is one C call per document (no Python inner
    loop); treat it as a tagger-pass signal, not a hot-path kernel."""
    import zlib

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.to_pylist()
    out = np.zeros(len(vals), np.float64)
    for i, s in enumerate(vals):
        if s:
            b = s.encode("utf-8")
            out[i] = len(zlib.compress(b, 6)) / len(b)
    return pa.array(out, pa.float64())


# sentence segmentation: boundary = terminal punctuation (+closing
# quotes/brackets) then whitespace then a capital/digit/opening quote;
# known abbreviations un-mark their false boundaries (RE2 has no
# lookaround, so boundaries are marked with a sentinel and wrong marks
# reverted — whitespace at a reverted boundary normalizes to one space)
_SENT_MARK = "\x1e"
_SENT_BOUNDARY = r'([.!?]["\')\]]*)[ \t]+([A-Z0-9"\'(])'
_SENT_ABBREV = (
    r'\b(?:Mr|Mrs|Ms|Dr|Prof|St|vs|etc|e\.g|i\.e|U\.S|U\.K|Inc|Ltd|Jr|Sr'
    r'|No|Fig|al|approx|dept|est)\.'
)


def split_sentences(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
    """Rule-based sentence segmentation, fully Arrow-vectorized (three
    RE2 kernels, no Python per row) -> list<string> of sentences per
    document. The C4/CCNet class of heuristic: terminal punctuation
    followed by whitespace and a capital/digit opens a sentence; a
    guarded abbreviation list prevents the classic false splits
    ("Mr. Smith", "U.S. Economy", "Fig. 3"). An abbreviation at a TRUE
    sentence end merges with the next sentence — the documented cost
    of lookaround-free RE2 rules; newline is NOT a boundary by itself
    (compose with line/paragraph splitters for display-text corpora)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # a literal sentinel in the input (C0 control, never legitimate
    # text) would fabricate boundaries — neutralize it to a space first
    col = pc.replace_substring(col, pattern=_SENT_MARK, replacement=" ")
    marked = pc.replace_substring_regex(
        col, pattern=_SENT_BOUNDARY, replacement="\\1" + _SENT_MARK + "\\2"
    )
    unmarked = pc.replace_substring_regex(
        marked,
        pattern="(" + _SENT_ABBREV + r'["\')\]]*)' + _SENT_MARK,
        replacement="\\1 ",
    )
    return pc.split_pattern(unmarked, _SENT_MARK)
