"""Text-analysis, dedup, and similarity pipelines over the test tables.

The training-data-pipeline operator set (token counting, quality
scoring, language ID, fingerprinting, the dedup ladder, ANN search) as
``queries()``-ready callables. SQL-expressible ones (token counts, md5
fingerprints, exact dedup, brute-force cosine top-k) have DuckDB oracles
in ``__ray_entry__``; sketch-based ones are deterministic and checked by
pytest instead.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..functions.text import lang_id, md5_hex, quality_features, token_count
from ..sources import read_table, scan_blocks, scan_table


def _lower_token_lists(col, pattern: str = "[^a-z]+"):
    """Shared tokenizer front-end for the vocab-driven operators
    (perplexity_buckets, train_bpe, bpe_token_stats, bpe_encode_corpus):
    lowercase then split on ``pattern`` — one definition so the train
    and encode sides can never drift."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    low = pc.utf8_lower(pc.fill_null(col, ""))
    return pc.split_pattern_regex(low, pattern=pattern)


def _exact_top(counts_ds, key_col: str, count_col: str, k: int) -> pd.DataFrame:
    """Exact global top-``k`` of an aggregated (key, count) dataset by
    (count desc, key asc): every block nominates ITS top-k (a block can
    contribute at most k global winners, so nominations are exact), the
    O(blocks·k) nomination set pulls to the driver, and the same order
    picks the global cut. This is THE nomination kernel behind every
    top-K table in this module (perplexity_buckets, train_bpe,
    train_unigram_lm) and of ``skew.key_skew_report`` — the two-level
    order must be byte-identical for exactness and layout invariance,
    so it lives in exactly one place.
    Returns a pandas frame of ≤k rows (empty-with-columns when the
    input has no rows)."""

    def local_top(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            [count_col, key_col], ascending=[False, True]
        ).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    cand = counts_ds.map_batches(local_top, batch_format="pyarrow").to_pandas()
    if key_col not in cand.columns:  # fully empty datasets lose columns
        return pd.DataFrame({key_col: [], count_col: []})
    return cand.sort_values([count_col, key_col], ascending=[False, True]).head(k)


def token_stats(sf_dir: str):
    """Whitespace + BPE-ish token counts per doc, aggregated per lang.

    One scan task per file computes BOTH tokenizers (vectorized Arrow
    split for whitespace runs; GPT-2-style pre-tokenizer shape — letter
    runs + single digits + punctuation marks — for the BPE proxy) and
    one merge of the per-lang partials rolls them up, so the pass over
    the corpus is paid once. (Consolidated from the former separate
    ``bpe_token_stats`` query: the driver gate reports at most 50
    queries.)"""
    from ..functions.text import bpeish_token_count

    def counts(batch: pa.Table) -> pa.Table:
        # per-block PARTIAL per-lang sums (combiner): integer sums are
        # exact, so any merge order gives the identical answer
        t = pa.table(
            {
                "lang": batch["lang"],
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
                "n_tokens": token_count(batch["text"]).cast(pa.int64()),
                "n_bpe_tokens": pa.array(
                    bpeish_token_count(batch["text"].to_pylist()), pa.int64()
                ),
            }
        )
        g = t.group_by("lang").aggregate(
            [
                ("one", "sum"),
                ("n_tokens", "sum"),
                # non-null token-count rows: avg_tokens divides by THIS
                # (SQL AVG skips nulls; n_docs counts all rows)
                ("n_tokens", "count"),
                ("n_bpe_tokens", "sum"),
            ]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "n_docs": g["one_sum"],
                "total_tokens": g["n_tokens_sum"],
                "tok_rows": g["n_tokens_count"].cast(pa.int64()),
                "total_bpe_tokens": g["n_bpe_tokens_sum"],
            }
        )

    from .relational import _fold_partials

    partials = scan_table(sf_dir, "documents", counts, columns=["doc_id", "text", "lang"])
    folded = _fold_partials(partials)
    if folded is not None:
        df = (
            # dropna=False: a NULL lang group survives (Ray arm / SQL
            # GROUP BY semantics)
            folded.groupby("lang", as_index=False, dropna=False)[
                ["n_docs", "total_tokens", "tok_rows", "total_bpe_tokens"]
            ].sum(min_count=1)
            if len(folded)
            else pd.DataFrame(
                {
                    "lang": pd.Series(dtype="object"),
                    "n_docs": pd.Series(dtype="int64"),
                    "total_tokens": pd.Series(dtype="int64"),
                    "tok_rows": pd.Series(dtype="int64"),
                    "total_bpe_tokens": pd.Series(dtype="int64"),
                }
            )
        )
    else:
        # Ray's sort-based groupby cannot shuffle a null key (None<str
        # raises in searchsorted), so the past-budget arm carries the
        # null-ness as a separate int key and restores it after
        def mask_null(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "lang_f": pc.fill_null(batch["lang"], ""),
                    "lang_n": pc.is_null(batch["lang"]).cast(pa.int8()),
                    "n_docs": batch["n_docs"],
                    "total_tokens": batch["total_tokens"],
                    "tok_rows": batch["tok_rows"],
                    "total_bpe_tokens": batch["total_bpe_tokens"],
                }
            )

        df = (
            rd.from_arrow_refs(partials)
            .map_batches(mask_null, batch_format="pyarrow")
            .groupby(["lang_f", "lang_n"])
            .aggregate(
                Sum("n_docs", alias_name="n_docs"),
                Sum("total_tokens", alias_name="total_tokens"),
                Sum("tok_rows", alias_name="tok_rows"),
                Sum("total_bpe_tokens", alias_name="total_bpe_tokens"),
            )
            .to_pandas()
        )
        df["lang"] = df["lang_f"].where(df["lang_n"] == 0, None)
        df = df.drop(columns=["lang_f", "lang_n"])
    # normalize the null-lang spelling: the fold arm's groupby leaves
    # float NaN in the object column while the mask-and-restore arm
    # writes None — pick ONE (None) so arm outputs are identical
    if len(df) and df["lang"].isna().any():
        lang = df["lang"].astype(object)
        lang[lang.isna()] = None
        df["lang"] = lang
    df = df.sort_values("lang").reset_index(drop=True)
    # pandas upcasts nullable int sums to float64 in the fold arm;
    # restore int64 whenever no null survived so both arms agree
    for c in ["n_docs", "total_tokens", "tok_rows", "total_bpe_tokens"]:
        if len(df) and df[c].notna().all():
            df[c] = df[c].astype("int64")
    # AVG semantics: null token counts (null text) are excluded from
    # the denominator, exactly like the SQL oracle's avg()
    df["avg_tokens"] = (df["total_tokens"] / df["tok_rows"].where(df["tok_rows"] > 0)).round(4)
    return df[["lang", "n_docs", "total_tokens", "avg_tokens", "total_bpe_tokens"]]


def fingerprints(sf_dir: str):
    """md5 content fingerprint per document (the stable per-row
    identity M10 analogue; byte-parity with DuckDB md5()), the
    Unicode-NFC-normalized fingerprint (the decode-canonicalization
    family M3), and the winnowing-style rolling-hash fingerprint
    (Schleimer et al. SIGMOD 2003) — all from the same pass over the
    same batch. (Consolidated from the former separate
    ``normalized_fingerprints`` and ``rolling_fingerprints`` queries:
    the driver gate reports at most 50 queries. The oracle is hybrid:
    md5 columns are exact DuckDB SQL; rolling_fp joins the golden
    fixture.)"""
    import unicodedata

    from ..functions.text import rolling_fingerprint

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        normed = [unicodedata.normalize("NFC", t or "") for t in texts]
        rolling = rolling_fingerprint(texts)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(md5_hex(texts), pa.string()),
                "norm_fingerprint": pa.array(md5_hex(normed), pa.string()),
                "rolling_fp": pa.array(
                    rolling.astype("int64") & 0x7FFFFFFFFFFFFFFF, pa.int64()
                ),
            }
        )

    out = ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def quality_scores(sf_dir: str):
    """Gopher/C4-style quality features + composite score per doc,
    plus the Gopher within-document repetition signals (dup-n-gram
    fractions, top-bigram share) and the heuristic language-ID
    prediction, all from the same batch — one corpus pass covers the
    whole per-doc quality family. (``pred_lang`` consolidated from the
    former separate language-ID query: the driver gate reports at most
    50 queries.)"""
    from ..functions.text import repetition_features

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def feats(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        f = quality_features(batch["text"])
        rep = repetition_features(batch["text"].to_pylist())
        cols = {}
        for src in (f, rep):
            for c in src.column_names:
                col = src[c]
                # symmetric round(4) with the SQL oracle; DuckDB rounds
                # half away from zero, so mirror that (Arrow defaults to
                # banker's rounding, which differs at exact .5 ties)
                cols[c] = (
                    pc.round(col, ndigits=4, round_mode="half_towards_infinity")
                    if pa.types.is_floating(col.type)
                    else col
                )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "pred_lang": lang_id(batch["text"]),
                **cols,
            }
        )

    out = ds.map_batches(feats, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def pii_scrub(sf_dir: str):
    """PII redaction over documents: emails, SSN-shaped ids, IPv4
    addresses, and phone-shaped digit runs each replaced by a typed
    placeholder with a per-type match count — entirely Arrow RE2
    kernels inside map_batches. DuckDB's regex engine is RE2 too, so
    the oracle is exact SQL with the same patterns.

    The synthetic corpus contains no PII-shaped strings, so scrubbing
    raw ``documents.text`` would pass vacuously (the
    embedding_near_dups weakness, VERDICT r2 finding 7). Instead each
    doc gets a deterministic doc_id-derived contact line planted in
    front of its text — one email, phone, IPv4 and SSN-shaped token per
    row, built identically in SQL — so every row demonstrably redacts
    all four types; ``functions.text.scrub_pii`` itself stays fully
    generic."""
    from ..functions.text import scrub_pii

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def scrub(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype("int64")
        d4 = pd.Series(ids % 10000).astype(str).str.zfill(4)
        contact = (
            "Contact: user" + pd.Series(ids).astype(str)
            + "@mail.example Phone: (555) 010-" + d4
            + " IP: 10.0." + pd.Series(ids % 256).astype(str)
            + "." + pd.Series((ids * 7) % 256).astype(str)
            + " SSN: 123-45-" + d4 + " "
        )
        planted = pc.binary_join_element_wise(
            pa.array(contact, pa.string()), pc.fill_null(batch["text"], ""), ""
        )
        out = scrub_pii(planted)
        return pa.table(
            {"doc_id": batch["doc_id"], **{c: out[c] for c in out.column_names}}
        )

    out = ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def decontaminate(
    sf_dir: str,
    *,
    n: int = 5,
    bench_mod: int = 97,
    bloom_fpr=None,
    bloom_items: int = 1_000_000,
):
    """Test-set decontamination (Brown et al. 2020 arXiv:2005.14165
    appendix C; Lee et al. 2021 arXiv:2107.06499 — public papers): flag
    training documents sharing word n-grams with a held-out benchmark
    set. Here the benchmark side is carved deterministically from the
    corpus itself (doc_id % bench_mod == 0 — an eval-set stand-in, no
    external data); per remaining doc we report its distinct-n-gram
    count, how many of those n-grams appear anywhere in the benchmark
    set, the contamination fraction, and a contaminated flag.

    Scale shape: the benchmark side is SMALL by nature (eval sets are
    thousands of docs, not billions) — its distinct n-gram hashes are
    unioned on the driver (O(|benchmark grams|), the broadcast-side
    budget every decontamination pipeline carries) and shipped once via
    ``ray.put``; the corpus pass is then embarrassingly parallel — one
    sorted-array membership probe per batch, no shuffle at all. The
    oracle is exact SQL over chr(31)-joined token STRINGS where the Ray
    side probes 64-bit gram HASHES — equal up to 2^-64 collisions (the
    same documented trade as quality_scores' repetition columns).

    ``bloom_fpr`` switches the broadcast side to a Bloom filter sized
    for ``bloom_items`` grams (functions.sketch) — the scale path when
    the reference set outgrows an exact sorted-hash array (e.g.
    filtering against a previously-trained corpus rather than an eval
    set): partial blooms OR-merge, the broadcast is fixed-size, and
    the probe gains false positives at the configured rate but never
    false negatives (contamination flags can only over-trigger, the
    safe direction for decontamination)."""
    import ray

    from ..functions.text import ngram_hash_sets
    from ..functions.sketch import (
        bloom_add,
        bloom_contains,
        bloom_create,
        bloom_params,
    )

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype("int64")
        sel = ids % bench_mod == 0
        if not sel.any():
            return pa.table({"gram": pa.array([], pa.uint64())})
        texts = batch.filter(pa.array(sel))["text"].to_pylist()
        flat, _ = ngram_hash_sets(texts, n)
        return pa.table({"gram": pa.array(np.unique(flat), pa.uint64())})

    if bloom_fpr is not None:
        # distributed partial-bloom build: each bench batch sets its
        # grams' bits into a fixed-size filter WORKER-side and ships
        # n_bits/8 bytes; the driver only OR-folds — O(batches·n_bits)
        # to the driver regardless of how large the gram set grows
        n_bits, bloom_k = bloom_params(bloom_items, bloom_fpr)

        def bench_blooms(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype("int64")
            sel = ids % bench_mod == 0
            if not sel.any():
                return pa.table({"bloom": pa.array([], pa.binary())})
            texts = batch.filter(pa.array(sel))["text"].to_pylist()
            flat, _ = ngram_hash_sets(texts, n)
            part = bloom_add(bloom_create(n_bits), np.unique(flat), bloom_k)
            return pa.table({"bloom": pa.array([part.tobytes()], pa.binary())})

        def _fold_blooms(bits: int) -> np.ndarray:
            acc = bloom_create(bits)
            pbds = ds.map_batches(
                bench_blooms, batch_format="pyarrow", zero_copy_batch=True
            )
            for b in pbds.iter_batches(batch_size=256, batch_format="pyarrow"):
                for buf in b["bloom"]:
                    acc |= np.frombuffer(buf.as_py(), dtype=np.uint64)
            return acc

        bloom = _fold_blooms(n_bits)
        # the folded filter's occupancy estimates the true distinct
        # gram count for free; if the caller's bloom_items undersized
        # the filter (realized FPR silently above the configured one),
        # warn and rebuild ONCE at the estimated size (deterministic:
        # the estimate is a pure function of the fold)
        from ..functions.sketch import bloom_estimate_items

        est = bloom_estimate_items(bloom, bloom_k)
        if est > bloom_items:
            import warnings

            warnings.warn(
                f"decontaminate: ~{est:.0f} distinct bench grams exceed "
                f"bloom_items={bloom_items}; rebuilding filter at the "
                "estimated size to hold the configured FPR"
            )
            n_items = max(bloom_items, int(est * 1.2) + 1)
            n_bits, bloom_k = bloom_params(n_items, bloom_fpr)
            bloom = _fold_blooms(n_bits)
        bench_ref = ray.put(bloom)
    else:
        bds = ds.map_batches(
            bench_grams, batch_format="pyarrow", zero_copy_batch=True
        )
        bench: list = []
        for b in bds.iter_batches(batch_size=65536, batch_format="pyarrow"):
            bench.append(b["gram"].to_numpy(zero_copy_only=False))
        bench_sorted = (
            np.unique(np.concatenate(bench))
            if bench
            else np.array([], dtype=np.uint64)
        )
        bench_ref = ray.put(bench_sorted)

    def probe(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype("int64")
        keep = ids % bench_mod != 0
        if not keep.any():
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_grams": pa.array([], pa.int64()),
                    "n_shared": pa.array([], pa.int64()),
                    "contam_frac": pa.array([], pa.float64()),
                    "contaminated": pa.array([], pa.bool_()),
                }
            )
        sub = batch.filter(pa.array(keep))
        texts = sub["text"].to_pylist()
        flat, offs = ngram_hash_sets(texts, n)
        bg = ray.get(bench_ref)
        if bloom_fpr is not None:
            hit = bloom_contains(bg, flat, bloom_k)
        else:
            # sorted-array membership: one searchsorted over the whole
            # batch's grams, then per-doc segment sums
            pos = np.searchsorted(bg, flat)
            hit = (pos < len(bg)) & (bg[np.minimum(pos, len(bg) - 1)] == flat) if len(bg) else np.zeros(len(flat), dtype=bool)
        n_grams = np.diff(offs)
        # per-doc segment sums via cumsum-diff: safe for zero-gram docs
        # anywhere incl. the batch TAIL (reduceat raises on an offset
        # == len(flat), which trailing sub-n-token docs produce)
        csum = np.concatenate(([0], np.cumsum(hit.astype(np.int64))))
        shared = csum[offs[1:]] - csum[offs[:-1]]
        frac = np.where(n_grams > 0, shared / np.maximum(n_grams, 1), 0.0)
        # round(4) half-away-from-zero to match DuckDB (np.round is
        # banker's); frac is nonnegative so floor(x*1e4 + 0.5) does it
        frac4 = np.floor(frac * 10000.0 + 0.5) / 10000.0
        return pa.table(
            {
                "doc_id": sub["doc_id"],
                "n_grams": pa.array(n_grams, pa.int64()),
                "n_shared": pa.array(shared, pa.int64()),
                "contam_frac": pa.array(frac4, pa.float64()),
                "contaminated": pa.array(shared > 0, pa.bool_()),
            }
        )

    out = ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def chunk_windows(sf_dir: str, *, window: int = 64, stride: int = 48):
    """Fixed-token-window chunking with overlap — the context-window
    preparation step of an LLM training pipeline (split each document
    into ``window``-token chunks every ``stride`` tokens, so
    consecutive chunks overlap by ``window - stride``). A pure 1→N
    flat-map: embarrassingly parallel, no shuffle, deterministic chunk
    ids, exactly SQL-expressible (list_slice + array_to_string), so
    the gate checks every chunk's text, not just counts.

    Chunk k covers tokens [k*stride, k*stride+window); the last chunk
    is the first one whose end reaches the doc's token count (shorter
    than ``window`` only when the doc itself is). Token = \\S+ run
    (the engine-wide tokenizer); chunk_text rejoins with single
    spaces. Empty docs yield no chunks."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(batch: pa.Table) -> pa.Table:
        # Fully vectorized 1->N explode: tokenize with the Arrow
        # whitespace kernel, then compute every chunk's token slice as
        # one flat gather (np.repeat/cumsum index arithmetic) and join
        # with binary_join — no per-doc Python loop.
        n_rows = batch.num_rows
        tok_lists = pc.utf8_split_whitespace(batch["text"])
        flat = pc.list_flatten(tok_lists)
        parents = pc.list_parent_indices(tok_lists).to_numpy(zero_copy_only=False)
        # split emits "" for leading/trailing whitespace; drop them so
        # token semantics stay \S+-equivalent
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        parents = parents[keep]
        L = np.bincount(parents, minlength=n_rows).astype(np.int64)

        n_chunks = np.where(
            L == 0,
            0,
            np.where(L <= window, 1, 1 + np.ceil((L - window) / stride).astype(np.int64)),
        ).astype(np.int64)
        total_chunks = int(n_chunks.sum())
        if total_chunks == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_id": pa.array([], pa.int64()),
                    "chunk_start": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "chunk_text": pa.array([], pa.string()),
                }
            )
        doc_idx = np.repeat(np.arange(n_rows), n_chunks)
        chunk_off = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        k = np.arange(total_chunks) - np.repeat(chunk_off, n_chunks)
        s = k * stride
        m = np.minimum(window, L[doc_idx] - s)

        # flat token offsets per doc (tokens are doc-ordered), then one
        # gather of every chunk's token index range
        tok_off = np.concatenate(([0], np.cumsum(L)))
        g = tok_off[doc_idx] + s
        total_toks = int(m.sum())
        within_off = np.concatenate(([0], np.cumsum(m)[:-1]))
        idx = np.repeat(g, m) + (np.arange(total_toks) - np.repeat(within_off, m))
        taken = pc.take(flat, pa.array(idx, pa.int64()))
        if isinstance(taken, pa.ChunkedArray):
            taken = taken.combine_chunks()
        offsets = pa.array(np.concatenate(([0], np.cumsum(m))), pa.int32())
        chunk_text = pc.binary_join(
            pa.ListArray.from_arrays(offsets, taken), " "
        )
        return pa.table(
            {
                "doc_id": pc.take(batch["doc_id"], pa.array(doc_idx, pa.int64())),
                "chunk_id": pa.array(k, pa.int64()),
                "chunk_start": pa.array(s, pa.int64()),
                "n_tokens": pa.array(m, pa.int64()),
                "chunk_text": chunk_text,
            }
        )

    out = ds.map_batches(chunks, batch_format="pyarrow", zero_copy_batch=True)
    return (
        out.to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )


def _pairs_df(pairs_ds) -> pd.DataFrame:
    """Materialize an (id, keep_id) pair dataset; an all-empty dataset
    loses its schema through to_pandas, so re-impose the columns."""
    df = pairs_ds.to_pandas()
    if "id" not in df.columns:
        df = pd.DataFrame({"id": pd.Series(dtype="int64"), "keep_id": pd.Series(dtype="int64")})
    return df.sort_values("id").reset_index(drop=True)


def minhash_near_dups(sf_dir: str, *, threshold: float = 0.6):
    """MinHash-LSH near-duplicate assignments over documents."""
    from ..stages.dedup import minhash_duplicate_assignments

    docs = partial(scan_table, sf_dir, "documents", columns=["doc_id", "text"])
    return _pairs_df(
        minhash_duplicate_assignments(docs, "text", "doc_id", threshold=threshold)
    )


def simhash_near_dups(sf_dir: str, *, max_hamming: int = 3):
    """SimHash near-duplicate assignments over documents."""
    from ..stages.dedup import simhash_duplicate_assignments

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return _pairs_df(simhash_duplicate_assignments(ds, "text", "doc_id", max_hamming=max_hamming))


EMBED_PLANT_MOD = 50  # one planted exact copy per 50 vec_ids
EMBED_PLANT_OFFSET = 1_000_000


def embedding_near_dups(sf_dir: str, *, threshold: float = 0.99):
    """Embedding-cosine near-duplicate assignments via hyperplane LSH.

    The synthetic embeddings have max off-diagonal cosine ~0.51, so the
    raw table would make this check vacuous (empty == empty). Like
    pii_scrub's plant-in-query trick, the query derives a deterministic
    augmented table inline: every vec_id % 50 == 0 row gains an exact
    copy at vec_id + 1_000_000. Identical vectors share every LSH
    bucket, so recall on the planted pairs is exactly 1 and the result
    must equal the exact-SQL cosine join over the same augmentation —
    the gate now proves recall, not just the empty set."""
    from ..stages.dedup import embedding_duplicate_assignments

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def plant(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        dup = batch.filter(pa.array(ids % EMBED_PLANT_MOD == 0))
        dup = dup.set_column(
            dup.schema.get_field_index("vec_id"),
            "vec_id",
            pc.add(dup["vec_id"], EMBED_PLANT_OFFSET),
        )
        return pa.concat_tables([batch, dup])

    aug = ds.map_batches(plant, batch_format="pyarrow", zero_copy_batch=True)
    return _pairs_df(
        embedding_duplicate_assignments(aug, "embedding", "vec_id", threshold=threshold)
    )


def semantic_dedup(sf_dir: str, *, threshold: float = 0.45):
    """SemDeDup-style semantic near-dup assignments over embeddings:
    k-means clusters (deterministic, budget-sampled) then in-cluster
    cosine compare (golden oracle pins cross-run determinism;
    planted-duplicate recall is pinned in pytest)."""
    from ..stages.dedup import semantic_duplicate_assignments

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return _pairs_df(
        semantic_duplicate_assignments(ds, "embedding", "vec_id", threshold=threshold)
    )


def _first_queries(vecs, nq: int) -> dict:
    """The first nq embeddings of ``vecs`` (a `scan_blocks` source of
    the embeddings table) double as the query set (deterministic).

    Pushed-down selection in ONE scan (never materializes the table
    on the driver): each block's scan task nominates its local
    nq-smallest ids WITH their vectors; the driver keeps the global nq
    smallest of O(blocks × nq) nominated rows. At 10^12 rows the driver holds
    blocks × nq vectors (e.g. 10^4 blocks × 5 × 128 floats ≈ 25 MB),
    not the corpus — strictly less I/O than the former two-pass
    id-scan + is_in fetch, which decoded the embedding column in full
    for the fetch pass anyway (VERDICT r2 finding 2)."""
    import ray

    def nominate(batch: pa.Table) -> pa.Table:
        v = batch["vec_id"].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return batch
        take = min(nq, len(v))
        idx = np.argpartition(v, take - 1)[:take]
        return batch.take(pa.array(np.sort(idx)))

    q = pa.concat_tables(ray.get(scan_blocks(vecs, nominate)))
    q = q.to_pandas().sort_values("vec_id").head(nq)
    return {
        "query_id": q["vec_id"].to_numpy(np.int64),
        "mat": np.array(q["embedding"].tolist(), dtype=np.float32),
    }


def ann_topk(sf_dir: str, *, nq: int = 5, k: int = 10):
    """Exact cosine top-k of the corpus against nq query vectors
    (brute force: broadcast query matrix + per-batch partial top-k).

    Returns the top-k MEMBERSHIP (query_id, vec_id) — scores are
    dropped from the oracle-checked result because DuckDB's
    list_cosine_similarity computes in float32 and exact decimal parity
    is impossible; the score-bearing variant is ann_topk_ivf."""
    from ..stages.similarity import brute_force_topk

    vecs = partial(scan_table, sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = brute_force_topk(vecs, _first_queries(vecs, nq), k=k).to_pandas()
    return (
        out[["query_id", "vec_id"]]
        .sort_values(["query_id", "vec_id"])
        .reset_index(drop=True)
    )


def ann_topk_ivf(sf_dir: str, *, nq: int = 5, k: int = 10):
    """IVF-bucketed approximate top-k (the scale path). The table is
    read once: the query nomination, the centroid training and the
    probed top-k all run over the blocks of that one scan."""
    from ..stages.similarity import ivf_topk

    refs = scan_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    queries = _first_queries(refs, nq)
    out = ivf_topk(rd.from_arrow_refs(refs), queries, k=k).to_pandas()
    out["score"] = out["score"].round(6)
    return out.sort_values(["query_id", "score", "vec_id"], ascending=[True, False, True]).reset_index(
        drop=True
    )


# --- multimodal plumbing over synthesized media ------------------------------

def _documents_as_media(sf_dir: str):
    """documents → synthetic media table: payload = PNG magic + the
    UTF-8 text bytes (deterministic, so the stub decode's metadata is
    SQL-checkable)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "media": pa.array(
                    [b"\x89PNG\r\n\x1a\n" + t.encode("utf-8") for t in texts],
                    pa.binary(),
                ),
                "media_type": pa.array(["image"] * len(ids), pa.string()),
            }
        )

    return docs.map_batches(to_media, batch_format="pyarrow")


def image_metadata(sf_dir: str):
    """Stubbed image decode over the synthesized media table — the
    plumbing (schema, actor pool, batch flow) is real; dims come from
    the deterministic fake decode (width = n*7%1024+16 etc., which the
    DuckDB oracle recomputes from strlen(text)+8)."""
    from ..stages.multimodal import decode_images

    out = decode_images(_documents_as_media(sf_dir))
    return out.to_pandas().sort_values("media_id").reset_index(drop=True)


def media_features(sf_dir: str):
    """Stub feature-extraction → 8-dim embedding per media payload
    (deterministic; feeds the ANN/dedup stages end-to-end). Returned
    LONG-form (media_id, dim_index, value) — scalar columns hash
    stably in the driver gate, where a list column's rendering would
    not."""
    from ..stages.multimodal import extract_features

    out = extract_features(_documents_as_media(sf_dir))

    def explode(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        mat = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        n, d = mat.shape if mat.size else (0, 0)
        return pa.table(
            {
                "media_id": pa.array(np.repeat(ids, d), pa.int64()),
                "dim_index": pa.array(np.tile(np.arange(d), n), pa.int32()),
                "value": pa.array(np.round(mat.ravel(), 4), pa.float64()),
            }
        )

    df = out.map_batches(explode, batch_format="pyarrow").to_pandas()
    return df.sort_values(["media_id", "dim_index"]).reset_index(drop=True)


def frame_samples(sf_dir: str):
    """Stub frame sampling (1→N flat-map over binary payloads):
    returns per-frame byte counts."""
    from ..stages.multimodal import sample_frames

    out = sample_frames(_documents_as_media(sf_dir))

    def sizes(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "media_id": batch["media_id"],
                "frame_index": batch["frame_index"],
                "frame_bytes": pc.binary_length(batch["frame"]).cast(pa.int64()),
            }
        )

    df = out.map_batches(sizes, batch_format="pyarrow").to_pandas()
    return df.sort_values(["media_id", "frame_index"]).reset_index(drop=True)


def clean_corpus(sf_dir: str, *, min_tokens: int = 40, min_chars: int = 200):
    """Composed C4-style cleaning pipeline: length filters → exact
    dedup by content → per-lang survivor counts. Every step is a
    Dataset op (vectorized filter, one dedup shuffle, partial-agg
    groupby) and the whole composition is SQL-checkable."""
    from ..stages.dedup import exact_dedup

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = token_count(batch["text"])
        chars = pc.utf8_length(batch["text"])
        mask = pc.and_(
            pc.greater_equal(toks, min_tokens), pc.greater_equal(chars, min_chars)
        )
        return batch.filter(mask)

    filtered = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    deduped = exact_dedup(filtered, "text", "doc_id")
    out = (
        deduped.groupby("lang")
        .aggregate(Count(alias_name="n_docs"))
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    return out


def cap_per_host(sf_dir: str, *, cap: int = 100):
    """Per-host document cap (the RefinedWeb/C4-style domain-frequency
    cap a web corpus needs so no single host dominates training data):
    keep at most ``cap`` docs per host with a deterministic winner rule
    (smallest doc_ids). Two-stage exact top-cap:

    1. per-batch PRE-PRUNE: each batch keeps its local smallest-cap ids
       per host (the global winners are necessarily a subset of the
       union of per-batch winners), so the shuffle carries at most
       batches × hosts × cap (host, doc_id) PAIRS — never documents,
       and never more than cap rows per host per batch;
    2. bucketed groupby on host (O(buckets) dispatch, engine pattern)
       finalizes the smallest cap per host.

    Exact SQL oracle (row_number PARTITION BY host)."""
    from ..functions.scalar import stable_bucket, url_host

    docs = read_table(sf_dir, "documents", columns=["doc_id"])

    def to_pairs(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = pa.array(
            [f"https://host{int(i) % 20}.example/doc/{int(i)}" for i in ids]
        )
        t = pa.table({"doc_id": batch["doc_id"], "host": url_host(urls)})
        df = t.to_pandas().sort_values("doc_id")
        pruned = df.groupby("host", as_index=False, sort=False).head(cap)
        out = pa.Table.from_pandas(pruned, preserve_index=False)
        return out.append_column(
            "_bucket", pa.array(stable_bucket(out["host"], 64), pa.int32())
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        kept = (
            df.sort_values("doc_id")
            .groupby("host", as_index=False, sort=False)
            .head(cap)
        )
        return kept[["doc_id", "host"]]

    out = (
        docs.map_batches(to_pairs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(finalize, batch_format="pandas")
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def host_heavy_hitters(sf_dir: str, *, k: int = 10, support_frac: float = 0.001):
    """Top-k hosts by count-min-estimated frequency — the heavy-hitter
    primitive for domain-frequency monitoring at 10^12 rows, where an
    exact groupby over the host universe is a full shuffle but a
    4096×4 counter grid is a few KB per batch.

    Two passes, both batching-insensitive (the golden-fixture oracle
    needs cross-run determinism under any Ray scheduling):

    1. merged CM sketch — per-batch counters ADD, merge order
       irrelevant — plus the exact total row count N;
    2. candidate nomination: every host whose merged-CM estimate is
       ≥ support_frac·N. CM only ever OVERESTIMATES (Cormode &
       Muthukrishnan 2005), so any host with true count ≥
       support_frac·N is guaranteed nominated — no per-batch local-top
       heuristic that could miss a host spread thinly across batches.
       The candidate set is {host : est ≥ T}, a pure function of the
       merged sketch — identical under any batching.

    The standard (φ, ε) heavy-hitter contract applies: a host below
    support_frac·N true count may be absent even if it would rank in
    the top k; pick support_frac ≤ (expected k-th hitter share) for a
    complete top-k. The accuracy pytest pins estimates against exact
    counts."""
    from ..pipelines.extract_pipeline import _documents_as_pages

    return heavy_hitters_over(
        _documents_as_pages(sf_dir), k=k, support_frac=support_frac
    )


def heavy_hitters_over(pages, *, k: int = 10, support_frac: float = 0.001):
    """Core of `host_heavy_hitters` over an arbitrary pages Dataset
    (url column) — see that docstring for the algorithm and
    guarantees."""
    import ray

    from ..functions.scalar import url_host
    from ..functions.sketch import cm_add, cm_create, cm_estimate, cm_merge

    def partial(batch: pa.Table) -> pa.Table:
        hosts = url_host(batch["url"]).to_pylist()
        uniq, counts = np.unique(np.asarray(hosts, dtype=object), return_counts=True)
        cm = cm_add(cm_create(), uniq.tolist(), counts)
        return pa.table(
            {
                "cm": pa.array([cm.tobytes()], pa.binary()),
                "n": pa.array([len(hosts)], pa.int64()),
            }
        )

    merged = cm_create()
    total = 0
    parts = pages.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    for b in parts.iter_batches(batch_size=256, batch_format="pyarrow"):
        for blob, n in zip(b["cm"].to_pylist(), b["n"].to_pylist()):
            merged = cm_merge(
                merged, np.frombuffer(blob, dtype=np.int64).reshape(merged.shape)
            )
            total += n
    _empty = pd.DataFrame(
        {
            "host": pd.Series(dtype="object"),
            "est_count": pd.Series(dtype="int64"),
            "n_pages": pd.Series(dtype="int64"),
        }
    )
    if total == 0:
        return _empty

    threshold = max(1, int(np.ceil(support_frac * total)))
    cm_ref = ray.put(merged)

    def nominate(batch: pa.Table) -> pa.Table:
        cm = ray.get(cm_ref)
        uniq = np.unique(
            np.asarray(url_host(batch["url"]).to_pylist(), dtype=object)
        )
        est = cm_estimate(cm, uniq.tolist())
        return pa.table({"host": pa.array(uniq[est >= threshold], pa.string())})

    cands: set = set()
    noms = pages.map_batches(nominate, batch_format="pyarrow", zero_copy_batch=True)
    for b in noms.iter_batches(batch_size=4096, batch_format="pyarrow"):
        cands.update(b["host"].to_pylist())
    if not cands:
        return _empty
    cand_list = sorted(cands)
    est = cm_estimate(merged, cand_list)
    order = np.lexsort((np.asarray(cand_list, dtype=object), -est))[:k]
    top_hosts = np.asarray(cand_list, dtype=object)[order]

    # exact verification counts for the SELECTED top-k hosts only
    # (consolidated from the former standalone host_doc_counts query —
    # 50-query gate cap — and a better demonstration: est_count and the
    # exact n_pages sit side by side). The k-host set is broadcast
    # once; the pass ships k partial counters per batch, never the host
    # universe. The hybrid oracle recomputes n_pages exactly in SQL.
    # This second corpus pass is inherent to exact counts for a set
    # chosen by the first pass: emitting counts during nomination would
    # undercount hosts nominated only in OTHER batches, and emitting
    # counts for ALL hosts is the per-batch-distinct groupby the CM
    # sketch exists to avoid. At 100 TB you would drop this exact-count
    # garnish and ship est_count alone.
    sel_ref = ray.put(set(top_hosts.tolist()))

    def exact_partial(batch: pa.Table) -> pa.Table:
        sel = ray.get(sel_ref)
        hosts = [h for h in url_host(batch["url"]).to_pylist() if h in sel]
        if hosts:
            uniq, counts = np.unique(
                np.asarray(hosts, dtype=object), return_counts=True
            )
        else:
            uniq = np.array([], dtype=object)
            counts = np.array([], dtype=np.int64)
        return pa.table(
            {
                "host": pa.array(uniq.tolist(), pa.string()),
                "c": pa.array(counts.astype("int64"), pa.int64()),
            }
        )

    exact: dict = {}
    ex = pages.map_batches(exact_partial, batch_format="pyarrow", zero_copy_batch=True)
    for b in ex.iter_batches(batch_size=4096, batch_format="pyarrow"):
        for hh, c in zip(b["host"].to_pylist(), b["c"].to_pylist()):
            exact[hh] = exact.get(hh, 0) + c

    return pd.DataFrame(
        {
            "host": top_hosts,
            "est_count": est[order].astype("int64"),
            "n_pages": pd.Series(
                [exact.get(hh, 0) for hh in top_hosts], dtype="int64"
            ),
        }
    ).reset_index(drop=True)


STRATA_RATES = {"en": 0.5, "de": 0.25, "fr": 0.25, "es": 0.25}
STRATA_DEFAULT_RATE = 0.1


def stratified_sample(sf_dir: str, *, rates=None, default_rate=STRATA_DEFAULT_RATE):
    """Deterministic hash-based stratified sampling — the corpus-mixing
    primitive of a training-data pipeline (sample each language at its
    mixing weight, reproducibly): a doc is kept iff the first 8 hex
    digits of md5(doc_id) fall under its stratum's rate threshold.
    Properties that matter at 10^12 rows:

    * embarrassingly parallel — the keep decision is a pure function of
      the row, no shuffle, no coordination, no RNG state;
    * deterministic and STABLE under re-partitioning, retries, and
      incremental re-runs (the same doc is always in or out — so a
      resumed or re-crawled corpus samples consistently);
    * exactly SQL-expressible (md5 + hex-string compare), so the gate
      checks values, not just counts.

    O5 sampling upgraded from the similarity module's pytest-only
    sampler to an oracle-checked operator."""
    from ..functions.text import md5_hex

    rates = dict(STRATA_RATES if rates is None else rates)
    thresholds = {
        lang: format(int(r * 16**8), "08x") for lang, r in rates.items()
    }
    default_thr = format(int(default_rate * 16**8), "08x")

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keys = np.array(
            [h[:8] for h in md5_hex([str(int(i)) for i in ids])], dtype=object
        )
        langs = np.asarray(batch["lang"].to_pylist(), dtype=object)
        thr = np.array(
            [thresholds.get(l, default_thr) for l in langs], dtype=object
        )
        mask = keys < thr  # lexicographic == numeric for fixed-width hex
        return pa.table(
            {
                "doc_id": pa.array(ids[mask], pa.int64()),
                "lang": pa.array(langs[mask], pa.string()),
                "sample_key": pa.array(keys[mask], pa.string()),
            }
        )

    out = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# training-mix weights: epochs per language source (floor = full
# copies, fraction = hash-sampled extra copy). >1 upsamples, <1
# downsamples — the Pile/CCNet corpus-mixing recipe
MIX_WEIGHTS = {"en": 2.25, "de": 1.0, "fr": 0.5, "es": 1.5, "zh": 0.25}
MIX_DEFAULT_WEIGHT = 0.25


def corpus_mix(sf_dir: str, *, weights=None, default_weight=MIX_DEFAULT_WEIGHT):
    """Weighted multi-epoch corpus mixing: a source with weight w
    contributes floor(w) full copies of every doc plus one more copy
    kept iff the first 8 hex digits of md5('doc_id:copy_idx') fall
    under frac(w) — the standard up/down-sampling mix recipe for
    training-data assembly (GPT-3 / Pile style), with the same
    deterministic-hash properties as stratified_sample: embarrassingly
    parallel (pure per-row decision, no shuffle, no RNG state), stable
    under re-partitioning/retries, and exactly SQL-expressible. The
    copy index rides along so downstream epoch assembly can key on
    (doc_id, copy_idx)."""
    out = _corpus_mix_ds(sf_dir, weights=weights, default_weight=default_weight)
    return (
        out.to_pandas().sort_values(["doc_id", "copy_idx"]).reset_index(drop=True)
    )


def _corpus_mix_ds(sf_dir: str, *, weights=None, default_weight=MIX_DEFAULT_WEIGHT):
    from ..functions.text import md5_hex

    weights = dict(MIX_WEIGHTS if weights is None else weights)

    def params(w: float) -> tuple[int, str]:
        full = int(np.floor(w))
        return full, format(int((w - full) * 16**8), "08x")

    table = {lang: params(w) for lang, w in weights.items()}
    default = params(default_weight)

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def mix(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        langs = np.asarray(batch["lang"].to_pylist(), dtype=object)
        full = np.array([table.get(l, default)[0] for l in langs], dtype=np.int64)
        thr = np.array([table.get(l, default)[1] for l in langs], dtype=object)
        # full copies: vectorized repeat with per-copy indices
        rep_ids = np.repeat(ids, full)
        rep_langs = np.repeat(langs, full)
        starts = np.repeat(np.cumsum(full) - full, full)
        rep_idx = np.arange(len(rep_ids), dtype=np.int64) - starts
        # fractional copy (copy_idx = full): kept under the hash threshold
        keys = np.array(
            [
                h[:8]
                for h in md5_hex([f"{int(i)}:{int(c)}" for i, c in zip(ids, full)])
            ],
            dtype=object,
        )
        fmask = keys < thr  # fixed-width hex: lexicographic == numeric
        out_ids = np.concatenate([rep_ids, ids[fmask]])
        out_langs = np.concatenate([rep_langs, langs[fmask]])
        out_idx = np.concatenate([rep_idx, full[fmask]])
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "lang": pa.array(out_langs, pa.string()),
                "copy_idx": pa.array(out_idx, pa.int64()),
            }
        )

    return ds.map_batches(mix, batch_format="pyarrow", zero_copy_batch=True)


def approx_distinct(sf_dir: str):
    """Approximate distinct counts via mergeable HyperLogLog sketches:
    one 4 KiB register set per batch (map_batches partial), merged in a
    tiny final reduce — the sketch pattern for distinct-count at
    10^12 rows where exact distinct would shuffle the key universe.
    Deterministic (stable hashing), ~1.6% standard error; checked
    against exact counts in pytest (approximate → no SQL value oracle).
    """
    from ..functions.sketch import hll_add, hll_count, hll_create, hll_merge

    rows = []
    for table, col in (("documents", "text"), ("events", "user_id"), ("orders", "o_custkey")):
        ds = read_table(sf_dir, table, columns=[col])

        def partial(batch: pa.Table, col=col) -> pa.Table:
            regs = hll_add(hll_create(), batch[col].to_pylist())
            return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

        parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        merged = hll_create()
        for b in parts.iter_batches(batch_size=256, batch_format="pyarrow"):
            for blob in b["regs"].to_pylist():
                merged = hll_merge(merged, np.frombuffer(blob, dtype=np.uint8))
        rows.append(
            {"table_col": f"{table}.{col}", "approx_distinct": int(round(hll_count(merged)))}
        )
    return pd.DataFrame(rows).sort_values("table_col").reset_index(drop=True)


def approx_quantiles(sf_dir: str, *, qs=(0.25, 0.5, 0.75, 0.95)):
    """Approximate per-group quantiles of events.value via mergeable
    DDSketch-style log-binned sketches (functions/sketch
    .quantile_sketch): one sketch per (batch, event_type) inside
    map_batches, a driver-side count-sum merge per group — the
    10^12-row path for value_median, where an exact median must
    co-locate every value of a group and this shuffles only
    O(batches × groups × bins) counters. Bin counts add, so the result
    is INDEPENDENT of batch boundaries and merge order (deterministic
    under any Ray scheduling — golden-oracle-safe); the returned value
    at any quantile is within alpha=0.5% relative error of the exact
    order statistic (pinned in pytest vs DuckDB exact quantiles)."""
    import json

    from ..functions.sketch import (
        quantile_sketch,
        quantile_sketch_merge,
        quantile_sketch_value,
    )

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        types, sks = [], []
        for et, g in df.groupby("event_type", sort=True):
            types.append(et)
            sks.append(json.dumps(quantile_sketch(g["value"].to_numpy())))
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "sketch": pa.array(sks, pa.string()),
            }
        )

    merged: dict = {}
    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    for b in parts.iter_batches(batch_size=256, batch_format="pyarrow"):
        for et, blob in zip(b["event_type"].to_pylist(), b["sketch"].to_pylist()):
            sk = json.loads(blob)
            sk["pos"] = {int(k): v for k, v in sk["pos"].items()}
            sk["neg"] = {int(k): v for k, v in sk["neg"].items()}
            merged[et] = quantile_sketch_merge(merged[et], sk) if et in merged else sk
    rows = []
    for et in sorted(merged):
        row = {"event_type": et}
        for q in qs:
            row[f"q{int(q * 100)}"] = round(quantile_sketch_value(merged[et], q), 4)
        rows.append(row)
    sketch_df = pd.DataFrame(rows).reset_index(drop=True)
    # exact per-group median alongside the sketch (consolidated from
    # the former separate value_median query — the driver gate reports
    # at most 50 queries): a second streaming pass through the bucketed
    # group shuffle; at 10^12 rows you would keep only the sketch
    # columns, which is exactly the trade this query demonstrates
    from .relational import value_median

    exact = value_median(sf_dir)
    return (
        sketch_df.merge(exact, on="event_type", how="left")
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def ngram_jaccard(sf_dir: str, *, threshold: float = 0.5):
    """Exact n-gram Jaccard similar pairs over documents (anchor-
    bucketed candidate generation, exact set verification)."""
    from ..stages.dedup import ngram_jaccard_pairs

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    df = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=threshold).to_pandas()
    if "id_a" not in df.columns:
        return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    df["jaccard"] = df["jaccard"].round(4)
    return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def perplexity_buckets(
    sf_dir: str,
    *,
    vocab_size: int = 4096,
    head: float = 90.00005,
    tail: float = 130.00005,
):
    """CCNet-style LM-perplexity quality bucketing (Wenzek et al.,
    LREC 2020 "CCNet"): train a unigram LM on the corpus itself, score
    every document's perplexity under it, and bucket into
    head/middle/tail by fixed thresholds (CCNet's thresholds are
    likewise precomputed constants, not per-run quantiles, so reruns
    and partitioning never move a document between buckets).

    Two passes, both streaming:

    1. **Vocab training** — per batch: vectorized Arrow lowercase →
       ``split_pattern_regex`` → ``value_counts`` partial token counts
       (shuffle ships (token, n) partials, never text), one groupby
       sum, then exact global top-``vocab_size`` by per-block local
       top-V nomination + an O(blocks·V) driver merge (exact because
       post-groupby counts are globally unique per token; same
       pattern as ``recent_events``). At 100 TB the distinct-token
       table is bounded by vocabulary (~10^8 rows), orders of
       magnitude below the corpus.
    2. **Scoring** — the V-row vocab (tokens + log-probs) is broadcast
       once via ``ray.put``; each batch does a vectorized
       ``pc.index_in`` lookup and ``np.bincount`` per-doc reduction.
       OOV tokens take the count-1 floor ``ln(1/total)``.

    Thresholds carry a 5e-5 offset so a 4-dp-rounded perplexity can
    never tie a threshold (bucket assignment is exact under the
    symmetric round(4) used for the DuckDB oracle parity)."""
    import pyarrow.compute as pc
    import ray

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(_lower_token_lists(batch["text"]))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table(
            {"tok": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
        )

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("tok")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    total = counts.sum("n") or 0
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series(dtype="int64"),
            "n_tokens": pd.Series(dtype="int64"),
            "n_oov": pd.Series(dtype="int64"),
            "perplexity": pd.Series(dtype="float64"),
            "ppl_bucket": pd.Series(dtype="object"),
        }
    )
    if total == 0:
        return empty

    vocab = _exact_top(counts, "tok", "n", vocab_size)
    vocab_toks = pa.array(vocab["tok"].tolist(), pa.string())
    logp = np.log(vocab["n"].to_numpy(np.float64) / float(total))
    oov_lp = float(np.log(1.0 / float(total)))
    vref = ray.put((vocab_toks, logp))

    def score(batch: pa.Table) -> pa.Table:
        va, lp_vals = ray.get(vref)
        lists = _lower_token_lists(batch["text"])
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "")
        parent = parent[keep.to_numpy(zero_copy_only=False)]
        flat = flat.filter(keep)
        idx = (
            pc.fill_null(pc.index_in(flat, value_set=va), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n_rows = batch.num_rows
        tok_lp = np.where(idx >= 0, lp_vals[np.clip(idx, 0, None)], oov_lp)
        lp_sum = np.bincount(parent, weights=tok_lp, minlength=n_rows)
        n_tok = np.bincount(parent, minlength=n_rows).astype(np.int64)
        n_oov = np.bincount(
            parent, weights=(idx < 0).astype(np.float64), minlength=n_rows
        ).astype(np.int64)
        ppl = np.where(n_tok > 0, np.exp(-lp_sum / np.maximum(n_tok, 1)), 1.0)
        ppl_r = pc.round(
            pa.array(ppl, pa.float64()), ndigits=4, round_mode="half_towards_infinity"
        ).to_numpy(zero_copy_only=False)
        bucket = np.where(ppl_r < head, "head", np.where(ppl_r < tail, "middle", "tail"))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_oov": pa.array(n_oov, pa.int64()),
                "perplexity": pa.array(ppl_r, pa.float64()),
                "ppl_bucket": pa.array(bucket.tolist(), pa.string()),
            }
        )

    out = ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def pack_sequences(sf_dir: str, *, capacity: int = 512, num_buckets: int = 64):
    """GPT-style sequence packing (concat-then-chunk): the corpus is one
    token stream in doc_id order, cut into fixed ``capacity``-token
    training sequences. Each doc gets its global token offset, the id of
    the sequence its first token lands in, its offset within that
    sequence, and how many sequences it spans (long docs cross
    boundaries; empty docs span 0).

    The global offset is a distributed exclusive prefix sum with NO
    all-to-all sort: doc_ids are cut into ``num_buckets`` contiguous
    ranges; pass 1 pre-aggregates per-bucket token totals inside
    map_batches (shuffle carries O(batches × buckets) partial rows) and
    the driver turns the ≤num_buckets totals into exclusive bucket
    offsets; pass 2 co-locates each bucket (one map_groups per bucket,
    cumsum vectorized inside) and adds its offset. At 100 TB the
    (doc_id, n_tokens) projection between passes is ~1%% of corpus
    bytes — persist it to parquet instead of recomputing the tokenize;
    at gate scale the recompute is cheaper than the write."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = pack_sequences_ds(ds, capacity=capacity, num_buckets=num_buckets)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


PACK_ROWS_PER_BUCKET = 262_144  # ≈6 MB of (id, count, bucket) rows per group task


def _bucketed_token_counts(ds, num_buckets: int):
    """Shared packer front-end: cut doc_ids into contiguous ranges and
    emit a (doc_id, n_tokens, _bucket) counts projection. Returns
    ``(counts_fn, nb)`` for ``map_batches``, or ``None`` on an empty
    dataset. Null text counts 0 tokens (matching the oracles'
    ``coalesce(text, '')``); the bucket cut divides by a range WIDTH
    rather than multiplying by num_buckets, so 64-bit snowflake-style
    doc_id spans cannot overflow int64.

    ``num_buckets`` is a MINIMUM: the effective count auto-scales with
    the corpus (``ceil(rows / PACK_ROWS_PER_BUCKET)``, row count rides
    the same bounds aggregate for free), so a 10^12-row caller at the
    default 64 never materializes corpus/64 rows in one ``map_groups``
    task (VERDICT r4 item 4). Bucket-count invariance is per packer:
    ``pack_sequences_ds`` (exact prefix sums) produces IDENTICAL output
    under any cut;
    ``pack_bins_ds``'s next-fit bins deliberately never cross bucket
    boundaries and its bin_id embeds the bucket id, so a different nb
    shifts bin compositions/ids (each boundary may add one underfilled
    bin — the documented trade for a fully local pass). Corpora big
    enough to trigger the auto-raise get deterministic-but-different
    pack_bins layouts than the pre-raise default would give; pin
    ``num_buckets`` explicitly when bin ids must be stable across
    corpus growth."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count, Max, Min

    bounds = ds.select_columns(["doc_id"]).aggregate(
        Min("doc_id"), Max("doc_id"), Count()
    )
    if not bounds or bounds.get("min(doc_id)") is None:
        return None
    lo, hi = int(bounds["min(doc_id)"]), int(bounds["max(doc_id)"])
    n_rows = int(bounds.get("count()") or 0)
    span = hi - lo + 1
    nb_auto = max(1, -(-n_rows // PACK_ROWS_PER_BUCKET))
    nb = min(max(num_buckets, nb_auto), span)
    width = (span + nb - 1) // nb  # ceil: max bucket id is nb-1

    def counts(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        text = pc.fill_null(batch["text"], "")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": token_count(text).cast(pa.int64()),
                "_bucket": pa.array((ids - lo) // width, pa.int32()),
            }
        )

    return counts, nb


def pack_sequences_ds(ds, *, capacity: int = 512, num_buckets: int = 64):
    """Dataset-returning core: the packed-assignment table STAYS a
    ``ray.data.Dataset`` (write_parquet it or keep streaming) — a
    100-TB caller must never see an O(corpus) driver materialization.
    The only driver-side state is the ≤num_buckets bucket-offset dict.
    ``pack_sequences`` is the thin gate wrapper that pulls pandas."""
    import ray

    empty_schema = {
        c: pa.array([], pa.int64())
        for c in (
            "doc_id",
            "n_tokens",
            "global_start",
            "seq_id",
            "seq_offset",
            "n_seqs",
        )
    }
    front = _bucketed_token_counts(ds, num_buckets)
    if front is None:
        return ray.data.from_arrow(pa.table(empty_schema))
    counts, _ = front

    # pass 1: per-batch partial totals → tiny groupby → exclusive offsets
    def partial_totals(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby("_bucket", as_index=False)["n_tokens"].sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    totals = (
        ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(partial_totals, batch_format="pyarrow")
        .groupby("_bucket")
        .aggregate(Sum("n_tokens", alias_name="bucket_tokens"))
        .to_pandas()
        .sort_values("_bucket")
    )
    cum = totals["bucket_tokens"].cumsum().shift(fill_value=0).to_numpy(np.int64)
    offsets = dict(zip(totals["_bucket"].astype(int), cum))

    # pass 2: within-bucket cumsum + broadcast bucket offset
    def pack(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id").reset_index(drop=True)
        base = offsets[int(df["_bucket"].iloc[0])]
        nt = df["n_tokens"].to_numpy(np.int64)
        start = base + np.cumsum(nt) - nt
        last = start + np.maximum(nt, 1) - 1  # last token (start itself if empty)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_tokens": nt,
                "global_start": start,
                "seq_id": start // capacity,
                "seq_offset": start % capacity,
                "n_seqs": np.where(nt == 0, 0, last // capacity - start // capacity + 1),
            }
        )

    return (
        ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(pack, batch_format="pandas")
    )


def pack_bins(sf_dir: str, *, capacity: int = 512, num_buckets: int = 64):
    """Boundary-respecting sequence packing (T5-style): each doc is
    assigned WHOLE to a training sequence of at most ``capacity``
    tokens — next-fit in doc_id order, a new bin opens when the next
    doc would overflow. Docs longer than ``capacity`` get a bin of
    their own with ``truncated=True`` (the consumer clips them).

    Distribution: contiguous doc_id-range buckets (same layout-
    invariant cut as pack_sequences); bins never cross buckets, so one
    co-located pass packs each bucket independently — no global state,
    no sort. The in-bucket next-fit is O(bins · log n) vectorized
    (per-bin ``searchsorted`` on the token cumsum), not a per-row
    Python loop. ``bin_id = bucket << 32 | local_bin`` is globally
    unique but sparse; a consumer needing dense ids renumbers with the
    same two-pass bucket-offset pattern pack_sequences uses for token
    offsets. Waste (bin underfill) is bounded by next-fit's 2× bound
    and measured in pytest instead of promised here."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = pack_bins_ds(ds, capacity=capacity, num_buckets=num_buckets)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def pack_bins_ds(ds, *, capacity: int = 512, num_buckets: int = 64):
    """Dataset-returning core (see pack_sequences_ds): bin assignments
    stay distributed; only the gate wrapper ``pack_bins`` pulls pandas."""
    import ray

    front = _bucketed_token_counts(ds, num_buckets)
    if front is None:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "bin_id": pa.array([], pa.int64()),
                    "truncated": pa.array([], pa.bool_()),
                }
            )
        )
    counts, _ = front

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id").reset_index(drop=True)
        bucket = int(df["_bucket"].iloc[0])
        nt = df["n_tokens"].to_numpy(np.int64)
        # next-fit: one searchsorted per BIN (not per row) on the
        # capacity-clipped cumsum (oversize docs count as `capacity`
        # so each necessarily closes its own bin)
        clipped = np.minimum(nt, capacity)
        cum = np.cumsum(clipped)
        n = len(nt)
        bin_of = np.empty(n, dtype=np.int64)
        i, b = 0, 0
        while i < n:
            base = cum[i - 1] if i else 0
            j = int(np.searchsorted(cum, base + capacity, side="right"))
            j = max(j, i + 1)  # an oversize doc still occupies one bin
            bin_of[i:j] = b
            i, b = j, b + 1
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_tokens": nt,
                "bin_id": (np.int64(bucket) << np.int64(32)) | bin_of,
                "truncated": nt > capacity,
            }
        )

    return (
        ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_bucket")
        .map_groups(pack, batch_format="pandas")
    )


# --- corpus-trained BPE tokenizer ---------------------------------------------


def train_bpe(sf_dir: str, *, n_merges: int = 200, vocab_words: int = 20_000):
    """Train a BPE tokenizer ON THE CORPUS (Sennrich et al. ACL 2016):
    one distributed pass builds the word-frequency histogram ((word,
    count) partials per batch, one small groupby — the perplexity-vocab
    shape), the exact top-``vocab_words`` rows reach the driver by
    local-top nomination, and the greedy merge loop runs driver-side
    over that histogram (functions.bpe) — the subword-nmt/fastBPE
    split: the corpus is touched once, the merge loop only ever sees
    the vocabulary-scale histogram. Returns the ordered merge list."""
    from ..functions.bpe import train_bpe as _train

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(_lower_token_lists(batch["text"]))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table(
            {"tok": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
        )

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("tok")
        .aggregate(Sum("n", alias_name="n"))
    )

    hist = _exact_top(counts, "tok", "n", vocab_words)
    return _train(dict(zip(hist["tok"], hist["n"])), n_merges)


def bpe_token_stats(sf_dir: str, merges, *, by: str = "lang"):
    """Distributed encode with a corpus-trained merge table: ranks are
    broadcast ONCE (ray.put), each batch encodes its words with a
    per-batch memo cache (web text repeats words heavily), and the
    per-group aggregate composes from per-batch partials. The
    compression column (whitespace tokens / BPE tokens per group) is
    the usual tokenizer-quality readout."""
    import ray

    from ..functions.bpe import bpe_encode_counts, merge_ranks

    rref = ray.put(merge_ranks(merges))
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", by])

    def encode(batch: pa.Table) -> pa.Table:
        ranks = ray.get(rref)
        lists = _lower_token_lists(batch["text"])
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        n_rows = batch.num_rows
        n_words = np.bincount(parent, minlength=n_rows).astype(np.int64)
        n_bpe = np.bincount(
            parent,
            weights=np.asarray(
                bpe_encode_counts(flat.to_pylist(), ranks), dtype=np.float64
            ),
            minlength=n_rows,
        ).astype(np.int64)
        return pa.table(
            {
                by: batch[by],
                "n_words": pa.array(n_words, pa.int64()),
                "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
            }
        )

    out = (
        ds.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(by)
        .aggregate(
            Count(),
            Sum("n_words", alias_name="total_words"),
            Sum("n_bpe_tokens", alias_name="total_bpe_tokens"),
        )
        .to_pandas()
        .rename(columns={"count()": "n_docs"})
        .sort_values(by)
        .reset_index(drop=True)
    )
    out["compression"] = (out["total_bpe_tokens"] / out["total_words"]).round(4)
    return out


def _assemble_token_ids(batch: pa.Table, id_col, text_col, encode_words) -> pa.Table:
    """Shared corpus-tokenization assembly for the BPE and unigram
    encoders: lower/split via `_lower_token_lists`, flatten with parent
    indices, drop empty words, run ``encode_words(words) ->
    list[list[int]]``, then rebuild per-doc id lists with one bincount
    + one LargeListArray. One definition so the two encoders can never
    drift (same rule as `_lower_token_lists` for train vs encode)."""
    lists = _lower_token_lists(batch[text_col])
    flat = pc.list_flatten(lists)
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(keep))
    parent = parent[keep]
    word_ids = encode_words(flat.to_pylist())
    word_lens = np.array([len(w) for w in word_ids], dtype=np.int64)
    per_doc = np.bincount(
        parent, weights=word_lens, minlength=batch.num_rows
    ).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(per_doc)))
    values = (
        np.concatenate(word_ids).astype(np.int32)
        if word_ids
        else np.empty(0, np.int32)
    )
    # word_ids arrive in (doc, word) order because list_flatten
    # preserves it, so one concatenate IS the per-doc layout
    return pa.table(
        {
            id_col: batch[id_col].cast(pa.int64()),
            "ids": pa.LargeListArray.from_arrays(
                offsets, pa.array(values, pa.int32())
            ),
            "n_tokens": pa.array(per_doc, pa.int64()),
        }
    )


def bpe_encode_corpus_ds(
    docs,
    merges,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Distributed corpus TOKENIZATION with a trained merge table — the
    bridge between ``train_bpe`` and the packing/epoch stages: every
    document becomes (id_col, ids list<int32>, n_tokens), the exact
    input shape a pretraining data loader consumes. The (ranks, vocab)
    pair broadcasts ONCE via ``ray.put`` (functions.bpe.bpe_vocab is
    deterministic from the merges alone, so every worker holds the
    identical id table); per batch, words encode through the memoized
    id cache and per-doc id lists assemble with one bincount + one
    LargeListArray — no per-doc Python loop.

    Scale shape: NO shuffle; output bytes ≈ 4·tokens (int32), the
    irreducible size of a tokenized corpus. Feed ``n_tokens`` straight
    into ``pack_sequences_ds`` for the clean → tokenize → pack chain.
    """
    import ray

    from ..functions.bpe import bpe_encode_ids, bpe_vocab, merge_ranks

    rref = ray.put((merge_ranks(merges), bpe_vocab(merges)))

    def encode(batch: pa.Table) -> pa.Table:
        ranks, vocab = ray.get(rref)
        return _assemble_token_ids(
            batch, id_col, text_col, lambda words: bpe_encode_ids(words, ranks, vocab)
        )

    return docs.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


def bpe_encode_corpus(sf_dir: str, merges=None, **kw):
    """bpe_encode_corpus_ds over the documents table (training merges
    on the same corpus when none are passed), sorted for compare."""
    if merges is None:
        merges = train_bpe(sf_dir)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return (
        bpe_encode_corpus_ds(docs, merges, **kw)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def train_unigram_lm(
    sf_dir: str,
    *,
    vocab_size: int = 256,
    vocab_words: int = 20_000,
    max_piece_len: int = 8,
    em_iters: int = 2,
):
    """Train a SentencePiece-style unigram-LM tokenizer ON THE CORPUS
    (Kudo, ACL 2018 — arXiv:1804.10959): the same ONE distributed
    (word, count) histogram pass ``train_bpe`` uses, then the EM loop
    (seed substrings -> forward-backward expected counts -> MLE update
    -> prune to ``vocab_size``) runs driver-side over that
    vocabulary-scale table (functions.unigram). The corpus is touched
    once; training cost is independent of corpus size — the same
    histogram-collapse rule as BPE and histogram packing. Returns the
    trained {piece: logprob} model."""
    from ..functions.unigram import train_unigram as _train

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(_lower_token_lists(batch["text"]))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table(
            {"tok": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
        )

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("tok")
        .aggregate(Sum("n", alias_name="n"))
    )
    hist = _exact_top(counts, "tok", "n", vocab_words)
    return _train(
        dict(zip(hist["tok"], hist["n"])),
        vocab_size,
        max_piece_len=max_piece_len,
        em_iters=em_iters,
    )


def unigram_encode_corpus_ds(
    docs,
    logp: dict,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Distributed corpus tokenization with a trained unigram model —
    the unigram counterpart of ``bpe_encode_corpus_ds``, same output
    shape (id_col, ids list<int32>, n_tokens) so the packer/epoch
    chain is tokenizer-agnostic. The (model, id-table) pair broadcasts
    ONCE via ray.put; per batch, distinct words Viterbi-decode through
    a memo (web text repeats words heavily) and per-doc id lists
    assemble with one bincount + one LargeListArray. NO shuffle."""
    import ray

    from ..functions.unigram import unigram_vocab, viterbi_encode_word

    max_len = max((len(s) for s in logp), default=1)
    mref = ray.put((dict(logp), unigram_vocab(logp)))

    def encode(batch: pa.Table) -> pa.Table:
        model, vocab = ray.get(mref)
        next_id = len(vocab)  # coverage-fallback chars get ids past the table
        memo: dict = {}

        def encode_words(words):
            word_ids = []
            for w in words:
                ids = memo.get(w)
                if ids is None:
                    pieces = viterbi_encode_word(w, model, max_piece_len=max_len)
                    ids = []
                    for p in pieces:
                        pid = vocab.get(p)
                        if pid is None:  # out-of-vocab single char
                            pid = next_id + (ord(p) if len(p) == 1 else 0)
                        ids.append(pid)
                    memo[w] = ids
                word_ids.append(ids)
            return word_ids

        return _assemble_token_ids(batch, id_col, text_col, encode_words)

    return docs.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


# --- sentence-boundary chunking ----------------------------------------------

def sentence_chunks_ds(
    docs,
    *,
    max_tokens: int = 128,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Sentence-boundary-respecting chunking: segment each document
    with the vectorized rule-based splitter
    (``functions.text.split_sentences``) and pack CONSECUTIVE
    sentences next-fit into chunks of at most ``max_tokens``
    whitespace tokens — a sentence never splits across chunks (an
    oversize single sentence gets a chunk of its own, flagged
    ``truncate``) — the RAG/embedding-window alternative to the
    fixed-stride ``chunk_windows``. Chunk text rejoins sentences with
    a single space (the boundary whitespace the splitter consumed).

    Scale shape: ZERO shuffle — one streaming map_batches; the
    explode / token count / chunk-text rebuild are Arrow kernels, and
    the only sequential work is next-fit's inherent per-chunk
    searchsorted (the ``pack_bins`` pattern: O(chunks·log sentences),
    never per token). Returns (id_col, chunk_idx, text, n_tokens,
    n_sentences, truncate)."""
    from ..functions.text import split_sentences, token_count

    def kernel(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch[text_col].combine_chunks(), "")
        parts = split_sentences(text)
        flat = pc.list_flatten(parts)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if flat.type != pa.string():  # large_string corpora (see linefreq)
            flat = flat.cast(pa.string())
        parents = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False)
        nt = token_count(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)

        n = len(flat)
        chunk_of = np.empty(n, dtype=np.int64)
        # per-doc next-fit on the capacity-clipped token cumsum (the
        # pack_bins loop: one searchsorted per CHUNK, not per sentence)
        clipped = np.minimum(nt, max_tokens)
        doc_starts = np.flatnonzero(
            np.concatenate(([True], parents[1:] != parents[:-1]))
        ) if n else np.empty(0, np.int64)
        doc_ends = np.append(doc_starts[1:], n)
        for s, e in zip(doc_starts, doc_ends):
            cum = np.cumsum(clipped[s:e])
            i = c = 0
            while i < e - s:
                base = cum[i - 1] if i else 0
                j = int(np.searchsorted(cum, base + max_tokens, side="right"))
                j = max(j, i + 1)
                chunk_of[s + i : s + j] = c
                i, c = j, c + 1

        # chunk starts = positions where (parent, chunk) changes
        if n:
            new_chunk = np.concatenate(
                (
                    [True],
                    (parents[1:] != parents[:-1])
                    | (chunk_of[1:] != chunk_of[:-1]),
                )
            )
        else:
            new_chunk = np.empty(0, bool)
        starts = np.flatnonzero(new_chunk)
        ends = np.append(starts[1:], n)
        offsets = np.concatenate(([0], ends)).astype(np.int32)
        chunk_list = pa.ListArray.from_arrays(pa.array(offsets), flat)
        joined = pc.binary_join(chunk_list, " ")
        seg = np.add.reduceat(nt, starts) if len(starts) else np.empty(0, np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[parents[starts]], pa.int64()),
                "chunk_idx": pa.array(chunk_of[starts], pa.int64()),
                text_col: joined,
                "n_tokens": pa.array(seg, pa.int64()),
                "n_sentences": pa.array(ends - starts, pa.int64()),
                "truncate": pa.array(seg > max_tokens, pa.bool_()),
            }
        )

    return docs.map_batches(kernel, batch_format="pyarrow", zero_copy_batch=True)
