"""Seeded inputs and their oracles.

    python3 -m perfbench.inputs <workload> <seed> <full|smoke> <out dir>

The benchmark runs this as a child process before Ray starts, so neither
its time nor its memory counts against the program under test; it
prints the description of what it wrote as one JSON line. The program
receives only the files written here.

Page corpora reuse ``textextract_ray.datagen`` for page bytes (the
FIXTURES.md classes F0-F11) but lay rows out themselves: doc ids start
at a seed-derived multiple of 24, so every seed has the same class mix,
and each F9 row copies an F0 row of the next shard through a seeded
bijection, so the duplicate-url share is exactly 1/12 for every seed.
The query tables are TPC-H-ish, with the schemas, sf0.1 sizes and value
distributions of the repo's test data (TESTDATA.md); they are generated
here because the benchmark reads nothing outside its checkout.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_CLASSES = 12
GIANT_CLASS = 8
DUP_CLASS = 9

# per workload and size: "full" is the measured size, "smoke" the
# smallest one; every run also writes the smoke size, and its set-up
# calls use part of it
SIZES = {
    "crawl_extract": {
        "full": {"shards": 8, "per_shard": 300, "giant": 128 << 10},
        "smoke": {"shards": 8, "per_shard": 12, "giant": 16 << 10},
    },
    "recrawl_versioned": {
        # the kill lands right after the base dump, so the resume is the
        # recrawl and the as-of read is the base snapshot
        "full": {"base_shards": 8, "recrawl_shards": 4, "per_shard": 240,
                 "giant": 4 << 10, "spp": 2},
        "smoke": {"base_shards": 4, "recrawl_shards": 2, "per_shard": 24,
                  "giant": 4 << 10, "spp": 2},
    },
    "query_mix": {"full": {"sf": 0.1}, "smoke": {"sf": 0.002}},
}

QUERIES = (
    "q1_pricing_summary",
    "q3_top_orders",
    "usage_rollup",
    "dedup_exact",
    "token_stats",
    "minhash_near_dups",
    "ann_topk",
)
# tables each query reads: the rows a query_mix pass consumes
QUERY_TABLES = {
    "q1_pricing_summary": ("lineitem",),
    "q3_top_orders": ("customer", "orders", "lineitem"),
    "usage_rollup": ("events",),
    "dedup_exact": ("documents",),
    "token_stats": ("documents",),
    "minhash_near_dups": ("documents",),
    "ann_topk": ("embeddings",),
}
MINHASH_THRESHOLD = 0.6  # textops.minhash_near_dups default


def _write(table: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path, compression="zstd", row_group_size=4096)


def _pages_table(rows: list) -> pa.Table:
    from textextract_ray.schemas import PAGES_SCHEMA

    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


# doc ids one seed may use: the largest corpus (recrawl_versioned's
# base, gap and recrawl shards) spans 3,120 of them
SEED_STRIDE = 24 * 200
# seeds share SEED_SLOTS bases, so that warc_ts = epoch + doc_id * 61 s
# stays before 2092 and page timestamps read back as Python datetimes
SEED_SLOTS = 8_000


def _doc_base(seed: int) -> int:
    # a multiple of 24 keeps doc_id % 24 (class, and the in-class
    # variants datagen keys on doc_id % 24) identical for every seed
    return SEED_STRIDE * (seed % SEED_SLOTS)


def _corpus_rows(seed: int, shards: int, per_shard: int, giant: int, base: int):
    """Rows of a shards × per_shard page corpus, one list per shard,
    plus the class of every row."""
    from textextract_ray.datagen import page_row

    if per_shard % N_CLASSES:
        raise ValueError("per_shard must be a multiple of 12")
    rng = np.random.default_rng(seed)
    # F9 rows of shard s copy F0 rows of shard s + 1: a fixed layout, so
    # with two shards per partition half of the copies fall inside a
    # partition and half across partitions, whatever the seed
    f0 = [i for i in range(per_shard) if i % N_CLASSES == 0]
    out, classes = [], []
    for s in range(shards):
        src = (s + 1) % shards
        perm = rng.permutation(len(f0))
        rows = []
        for i in range(per_shard):
            if i % N_CLASSES == DUP_CLASS:
                k = (i - DUP_CLASS) // N_CLASSES
                j = src * per_shard + f0[perm[k]]
                rows.append(page_row(base + j, giant))
            else:
                rows.append(page_row(base + s * per_shard + i, giant))
            classes.append(i % N_CLASSES)
        out.append(rows)
    return out, classes


def _digest(text: str, status: str) -> str:
    return hashlib.sha256(f"{status}\x00{text}".encode("utf-8")).hexdigest()


def _oracle(shard_files: list) -> tuple:
    """Single-process oracle over the written shards: one
    {url: digest} map per shard, in shard order, and the oracle's
    docs/s (``extract_document`` time only)."""
    from textextract_ray.oracle import extract_document

    per_shard = []
    docs = 0
    busy = 0.0
    for f in shard_files:
        t = pq.read_table(f, columns=["url", "html"])
        got = {}
        t0 = time.perf_counter()
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            r = extract_document(html)
            got[url] = _digest(r.text, r.status)
        busy += time.perf_counter() - t0
        docs += t.num_rows
        per_shard.append(got)
    return per_shard, docs / busy


def _latest(per_shard: list) -> dict:
    final = {}
    for got in per_shard:
        final.update(got)
    return final


def _self_check(name: str, rows: list, classes: list, giant: int) -> dict:
    """The corpus must look the same for every seed: 1/12 of rows per
    class, 1/12 giants of at least 0.9 × ``giant`` bytes, and a 1/12
    duplicate-url share."""
    n = len(rows)
    classes = np.asarray(classes)
    mix = np.bincount(classes, minlength=N_CLASSES) / n
    sizes = np.array([len(r["html"]) for r in rows])
    giants = (classes == GIANT_CLASS) & (sizes >= 0.9 * giant)
    dup = 1 - len({r["url"] for r in rows}) / n
    stats = {
        "rows": n,
        "giant_share": float(giants.mean()),
        "giant_byte_share": float(sizes[giants].sum() / sizes.sum()),
        "dup_url_share": dup,
    }
    ok = (
        np.allclose(mix, 1 / N_CLASSES)
        and abs(stats["giant_share"] - 1 / N_CLASSES) < 1e-9
        and abs(dup - 1 / N_CLASSES) < 1e-9
    )
    if not ok:
        raise AssertionError(f"{name}: corpus self-check failed: {stats}, mix={mix}")
    return stats


def _save_digest(path: str, digest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(digest, fh, sort_keys=True)


def prep_crawl(out: str, seed: int, size: dict) -> dict:
    shards, stats = _write_corpus(out, seed, size["shards"], size["per_shard"],
                                  size["giant"], _doc_base(seed))
    per_shard, oracle_dps = _oracle(shards)
    expected = _latest(per_shard)
    _save_digest(os.path.join(out, "expected.json"), expected)
    return {"dir": out, "shards": shards, "docs": size["shards"] * size["per_shard"],
            "oracle_docs_per_s": oracle_dps, "corpus": stats}


def _write_corpus(out, seed, shards, per_shard, giant, base):
    if shards * per_shard > SEED_STRIDE:
        raise ValueError("corpus spans more doc ids than SEED_STRIDE")
    rows, classes = _corpus_rows(seed, shards, per_shard, giant, base)
    flat = [r for s in rows for r in s]
    stats = _self_check(out, flat, classes, giant)
    files = []
    for s, shard_rows in enumerate(rows):
        path = os.path.join(out, "pages", f"pages-{s:05d}.parquet")
        _write(_pages_table(shard_rows), path)
        files.append(path)
    return files, stats


def prep_recrawl(out: str, seed: int, size: dict) -> dict:
    """Base dump followed by recrawl shards. Half of every recrawl
    shard re-captures base urls with new page bytes and a later
    warc_ts (no url twice across recrawl shards, so every partition
    holds one capture per url); the other half are new urls."""
    from textextract_ray.datagen import make_page, page_row

    base = _doc_base(seed)
    per, nb, nr, giant = (size["per_shard"], size["base_shards"],
                          size["recrawl_shards"], size["giant"])
    if (nb + 1 + nr) * per > SEED_STRIDE:
        raise ValueError("recrawl corpus spans more doc ids than SEED_STRIDE")
    files, stats = _write_corpus(out, seed, nb, per, giant, base)
    base_rows = [r for f in files for r in pq.read_table(f).to_pylist()]
    candidates = sorted({r["url"]: r for r in base_rows}.items())
    rng = np.random.default_rng(seed + 1)
    n_recap = nr * per // 2
    pick = rng.choice(len(candidates), size=n_recap, replace=False)
    fresh = base + (nb + 1) * per
    k = 0
    for r in range(nr):
        rows = []
        for i in range(per):
            doc = fresh + r * per + i
            if doc % N_CLASSES == DUP_CLASS:
                doc -= DUP_CLASS  # recrawl shards carry no F9 copies
            if i % 2 == 0:
                row = dict(candidates[pick[k]][1])
                k += 1
                row["html"] = make_page(doc, giant)
                row["warc_ts"] += datetime.timedelta(days=r + 1)
            else:
                row = page_row(doc, giant)
            rows.append(row)
        path = os.path.join(out, "pages", f"pages-{nb + r:05d}.parquet")
        _write(_pages_table(rows), path)
        files.append(path)
    per_shard, oracle_dps = _oracle(files)
    spp = size["spp"]
    kill = nb // spp  # first recrawl partition
    _save_digest(os.path.join(out, "expected.json"), _latest(per_shard))
    _save_digest(os.path.join(out, "expected_asof.json"), _latest(per_shard[:nb]))
    return {"dir": out, "shards": files, "docs": (nb + nr) * per, "spp": spp, "kill": kill,
            "oracle_docs_per_s": oracle_dps, "corpus": stats}


# --- query tables --------------------------------------------------------------

_VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
# the repo's sf0.1 test tables (TESTDATA.md), as measured: documents
# hold 10-100 tokens drawn uniformly from _VOCAB, 5.0% of them are some
# other document's text plus " dup" and 0.16% repeat another text
# (mostly two near-dups of one document, 0.04% planted copies); 41% are
# "en"; order dates span 1995-01-01 + 0..2404 days and ship dates
# 1995-01-02 + 0..2498 days, independently; extended prices are uniform
# on [900, 105000) whatever the quantity; event values are exponential
# with mean 50; every other column is uniform over its range
NEAR_DUP_SHARE = 0.05
EXACT_DUP_SHARE = 0.0004
LANGS = (("en", 0.41), ("de", 0.14), ("es", 0.15), ("fr", 0.15), ("zh", 0.15))


def _texts(rng, n: int) -> list:
    texts = [" ".join(rng.choice(_VOCAB, k)) for k in rng.integers(10, 101, n)]
    for i in range(n):
        r = rng.random()
        if r < NEAR_DUP_SHARE:
            texts[i] = texts[int(rng.integers(0, n))] + " dup"
        elif r < NEAR_DUP_SHARE + EXACT_DUP_SHARE:
            texts[i] = texts[int(rng.integers(0, n))]
    return texts


def _tables(seed: int, sf: float) -> dict:
    rng = np.random.default_rng(seed)
    n_cust = max(50, int(150_000 * sf))
    n_ord = max(200, int(1_500_000 * sf))
    n_li = max(800, int(6_000_000 * sf))
    n_ev = max(400, int(1_000_000 * sf))
    n_doc = max(100, int(50_000 * sf))
    n_vec = max(40, int(20_000 * sf))
    day_us = 86_400 * 10**6
    d1995 = np.datetime64("1995-01-01", "us").astype(np.int64)

    def money(lo, hi, n):
        return np.round(rng.uniform(lo, hi, n), 2)

    def ts(v):
        return pa.array(v.astype("datetime64[us]"), pa.timestamp("us"))

    segs = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": money(-1000, 10_000, n_cust),
        "c_mktsegment": segs[rng.integers(0, 5, n_cust)],
    })
    prio = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
        "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)],
        "o_totalprice": money(1_000, 500_000, n_ord),
        "o_orderdate": ts(d1995 + rng.integers(0, 2405, n_ord) * day_us),
        "o_orderpriority": prio[rng.integers(0, 5, n_ord)],
    })
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, n_ord, n_li), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 20_000, n_li), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 1_000, n_li), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, n_li), pa.int32()),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": money(900, 105_000, n_li),
        "l_discount": np.round(rng.integers(0, 11, n_li) / 100, 2),
        "l_tax": np.round(rng.integers(0, 9, n_li) / 100, 2),
        "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)],
        "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, n_li)],
        "l_shipdate": ts(d1995 + rng.integers(1, 2500, n_li) * day_us),
    })
    t2024 = np.datetime64("2024-01-01", "us").astype(np.int64)
    events = pa.table({
        "event_id": pa.array(np.arange(n_ev), pa.int64()),
        "ts": ts(np.sort(t2024 + rng.integers(0, 30 * day_us, n_ev))),
        "user_id": pa.array(rng.integers(0, 1_500, n_ev), pa.int64()),
        "event_type": np.array(["click", "error", "purchase", "signup", "view"])[
            rng.integers(0, 5, n_ev)
        ],
        "value": np.round(rng.exponential(50, n_ev), 2),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)],
    })
    texts = _texts(rng, n_doc)
    names, shares = zip(*LANGS)
    documents = pa.table({
        "doc_id": pa.array(np.arange(n_doc), pa.int64()),
        "text": texts,
        "lang": rng.choice(names, n_doc, p=shares),
        "source": [f"src{i % 20}" for i in range(n_doc)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    vecs = rng.normal(size=(n_vec, 64)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    offsets = pa.array(np.arange(n_vec + 1, dtype=np.int32) * 64)
    embeddings = pa.table({
        "vec_id": pa.array(np.arange(n_vec), pa.int64()),
        "embedding": pa.ListArray.from_arrays(offsets, pa.array(vecs.ravel())),
        "label": pa.array(rng.integers(0, 10, n_vec), pa.int32()),
    })
    return {"customer": customer, "orders": orders, "lineitem": lineitem,
            "events": events, "documents": documents, "embeddings": embeddings}


def _shingles(token_hashes: list, k: int = 3) -> np.ndarray:
    """k-token shingle hashes of one doc, one at a time: the polynomial
    combine of consecutive token hashes (base 1_000_003, mod 2**64) that
    ``functions.text.batch_shingle_hashes`` documents, fewer than k
    tokens making one shingle."""
    k = min(k, len(token_hashes))
    out = []
    for s in range(len(token_hashes) - k + 1):
        acc = 0
        for h in token_hashes[s : s + k]:
            acc = (acc * 1_000_003 + h) % (1 << 64)
        out.append(acc)
    return np.array(out, dtype=np.uint64)


def minhash_oracle(documents: pa.Table, threshold: float = MINHASH_THRESHOLD, bands: int = 16):
    """Single-process MinHash-LSH near-dup assignment with the
    textops defaults (64 perms, 16 bands, 3-token shingles), one doc at
    a time through the per-doc ``minhash_signature`` reference, so none
    of the batch kernels it checks is used. Every (band, band values)
    bucket pairs each later id with each earlier one (textops keys a
    band by a hash of its values), a pair survives when its signatures
    agree on >= threshold of the perms, and each id keeps its smallest
    surviving partner."""
    import pandas as pd

    from textextract_ray.functions.scalar import hash_utf8
    from textextract_ray.functions.text import minhash_params, minhash_signature

    a, b = minhash_params(64)
    rows = len(a) // bands
    ids, sigs = [], []
    for doc_id, text in zip(documents["doc_id"].to_pylist(), documents["text"].to_pylist()):
        tokens = (text or "").split()
        if not tokens:
            continue
        # the token hash textops shingles over: hash_utf8, seed 41
        th = [int(h) for h in hash_utf8(pa.array(tokens, pa.string()), seed=41)]
        ids.append(doc_id)
        sigs.append(minhash_signature(_shingles(th), a, b))
    buckets: dict = {}
    for row, sig in enumerate(sigs):
        for band in range(bands):
            key = (band, tuple(sig[band * rows : (band + 1) * rows].tolist()))
            buckets.setdefault(key, []).append(row)
    pairs = set()
    for members in buckets.values():
        members = sorted(set(members), key=lambda r: ids[r])
        for x in range(len(members)):
            for y in range(x):
                pairs.add((members[x], members[y]))
    keep: dict = {}
    for hi, lo in pairs:
        if (sigs[hi] == sigs[lo]).mean() >= threshold:
            keep[ids[hi]] = min(ids[lo], keep.get(ids[hi], ids[lo]))
    return pd.DataFrame(
        {"id": pd.Series(sorted(keep), dtype="int64"),
         "keep_id": pd.Series([keep[i] for i in sorted(keep)], dtype="int64")}
    )


def prep_queries(out: str, seed: int, size: dict) -> dict:
    """Write the tables and every query's expected result: DuckDB over
    ``__ray_entry__.oracle_sql()`` where the query has SQL, the
    single-process MinHash oracle for ``minhash_near_dups``."""
    import duckdb

    import __ray_entry__ as entry

    tdir = os.path.join(out, "tables")
    tables = _tables(seed, size["sf"])
    os.makedirs(tdir, exist_ok=True)
    for name, t in tables.items():
        # pyarrow's defaults (snappy, one row group), as the test data
        # was written
        pq.write_table(t, os.path.join(tdir, f"{name}.parquet"))
    sql = entry.oracle_sql()
    con = duckdb.connect()
    try:
        for name in tables:
            path = os.path.join(tdir, f"{name}.parquet")
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
        for q in QUERIES:
            if q == "minhash_near_dups":
                df = minhash_oracle(tables["documents"])
            else:
                df = con.execute(sql[q]).fetchdf()
            _write(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(out, "expected", f"{q}.parquet"))
    finally:
        con.close()
    rows = sum(tables[t].num_rows for q in QUERIES for t in QUERY_TABLES[q])
    return {"dir": out, "tables": tdir, "rows": rows}


PREP = {"crawl_extract": prep_crawl, "recrawl_versioned": prep_recrawl,
        "query_mix": prep_queries}


def prep(workload: str, seed: int, size: str, out: str) -> dict:
    """Write the measured inputs (``out/main``) and the warm-up inputs
    (``out/warm``, always the smoke size) and return their
    descriptions."""
    fn = PREP[workload]
    t0 = time.perf_counter()
    info = {
        "main": fn(os.path.join(out, "main"), seed, SIZES[workload][size]),
        "warm": fn(os.path.join(out, "warm"), seed + 1, SIZES[workload]["smoke"]),
    }
    info["prep_s"] = time.perf_counter() - t0
    return info


if __name__ == "__main__":
    import sys

    # python3 -m perfbench.inputs <workload> <seed> <size> <out dir>
    w, s, z, o = sys.argv[1:5]
    print(json.dumps(prep(w, int(s), z, o)))
