"""The driver's correctness gate, replicated in pytest: every
oracle_sql() entry must match its queries() result at sf0.001
(row count + columns + order-insensitive values).
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest


def _to_pandas(obj):
    import pyarrow as pa
    import ray.data as rd

    if isinstance(obj, rd.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.fixture(scope="module")
def entrymod():
    import __ray_entry__

    return __ray_entry__


@pytest.fixture(scope="module")
def con(sf_dir):
    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings"
    ).split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _oracle_names():
    import __ray_entry__

    return sorted(__ray_entry__.oracle_sql())


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(name, entrymod, con, sf_dir, ray_session):
    res = _normalize(_to_pandas(entrymod.queries()[name](sf_dir)))
    exp = _normalize(con.execute(entrymod.oracle_sql()[name]).fetchdf())
    assert list(res.columns) == list(exp.columns)
    assert len(res) == len(exp)
    for c in res.columns:
        a, b = res[c], exp[c]
        if pd.api.types.is_float_dtype(a) or pd.api.types.is_float_dtype(b):
            assert np.isclose(
                a.astype(float), b.astype(float), rtol=1e-9, atol=1e-9, equal_nan=True
            ).all(), c
        else:
            assert (a.astype(str) == b.astype(str)).all(), c


def test_every_query_runs(entrymod, sf_dir, ray_session):
    """Rows-only smoke for queries without an oracle."""
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    for name, fn in qs.items():
        if name in oracles:
            continue
        df = _to_pandas(fn(sf_dir))
        assert df is not None and len(df) >= 0, name


def test_entry_smoke(ray_session, entrymod):
    ds = entrymod.entry()
    df = _to_pandas(ds)
    assert len(df) > 0
    assert "extracted_text" in df.columns


def test_approx_distinct_close_to_exact(entrymod, sf_dir, ray_session, con):
    df = entrymod.queries()["approx_distinct"](sf_dir)
    exact = {
        "documents.text": con.execute("SELECT count(DISTINCT text) FROM documents").fetchone()[0],
        "events.user_id": con.execute("SELECT count(DISTINCT user_id) FROM events").fetchone()[0],
        "orders.o_custkey": con.execute("SELECT count(DISTINCT o_custkey) FROM orders").fetchone()[0],
    }
    for _, row in df.iterrows():
        true = exact[row["table_col"]]
        assert abs(row["approx_distinct"] - true) / max(true, 1) < 0.05, row["table_col"]


def _tiny_events(tmp_path, rows: dict):
    import pyarrow as pa
    import pyarrow.parquet as pq

    tbl = pa.table(
        {
            "event_id": pa.array(rows["event_id"], pa.int64()),
            "ts": pa.array(pd.to_datetime(rows["ts"]), pa.timestamp("us")),
            "user_id": pa.array(rows["user_id"], pa.int64()),
            "event_type": pa.array(rows.get("event_type", ["click"] * len(rows["event_id"]))),
            "value": pa.array(rows.get("value", [1.0] * len(rows["event_id"]))),
            "props": pa.array(rows.get("props", ['{"k": 1}'] * len(rows["event_id"]))),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    return str(tmp_path)


def test_credit_admission_replays_in_time_order(tmp_path, ray_session):
    # event_ids run OPPOSITE to ts: a replay that orders by event_id
    # instead of ts picks the wrong first_rejected_event_id
    from textextract_ray.pipelines.relational import credit_admission

    n = 8
    sf = _tiny_events(
        tmp_path,
        {
            "event_id": list(range(n, 0, -1)),  # 8..1
            "ts": [f"2024-01-01T00:0{i}:00" for i in range(n)],
            "user_id": [7] * n,
        },
    )
    df = credit_admission(sf, max_requests=3, credits=2)
    assert len(df) == 1
    row = df.iloc[0]
    assert row["admitted_within_quota"] == 3
    assert row["admitted_via_credit"] == 2
    assert row["rejected"] == 3
    assert row["credits_remaining"] == 0
    # 6th request in TIME order is event_id 8-5=3
    assert row["first_rejected_event_id"] == 3.0


def test_credit_admission_under_quota_keeps_credits(tmp_path, ray_session):
    from textextract_ray.pipelines.relational import credit_admission

    sf = _tiny_events(
        tmp_path,
        {
            "event_id": [1, 2],
            "ts": ["2024-01-01T00:00:00", "2024-01-01T00:01:00"],
            "user_id": [1, 1],
        },
    )
    row = credit_admission(sf, max_requests=3, credits=2).iloc[0]
    assert row["admitted_within_quota"] == 2
    assert row["admitted_via_credit"] == 0 and row["rejected"] == 0
    assert row["credits_remaining"] == 2
    assert np.isnan(row["first_rejected_event_id"])


def test_device_info_fallback_keeps_raw_payload(tmp_path, ray_session):
    # unparseable props must keep the raw string (reference fallback,
    # auth.py:198-201), parsed rows walk the classification ladder
    from textextract_ray.pipelines.relational import device_info

    sf = _tiny_events(
        tmp_path,
        {
            "event_id": [1, 2, 3, 4, 5],
            "ts": [f"2024-01-01T00:0{i}:00" for i in range(5)],
            "user_id": [1] * 5,
            "props": ['{"k": 10}', '{"k": 30}', '{"k": 60}', '{"k": 90}', "not-json"],
        },
    )
    df = device_info(sf)
    assert list(df["device_type"]) == ["desktop", "mobile", "tablet", "other", "unknown"]
    assert list(df["parse_ok"]) == [True, True, True, True, False]
    assert df["raw_props"].iloc[4] == "not-json"
    assert df["raw_props"].iloc[:4].isna().all()


def test_approx_quantiles_relative_value_accuracy(entrymod, sf_dir, ray_session, con):
    """DDSketch contract: the returned value at quantile q is within
    alpha relative error of the exact order statistic."""
    from textextract_ray.functions.sketch import QUANTILE_ALPHA

    df = entrymod.queries()["approx_quantiles"](sf_dir)
    exact = con.execute(
        "SELECT event_type, list(value ORDER BY value) vs FROM events GROUP BY event_type"
    ).fetchall()
    tol = 2 * QUANTILE_ALPHA + 1e-4  # bin width + rank-index rounding
    for et, vs in exact:
        vs = np.sort(np.asarray(vs))
        row = df[df.event_type == et].iloc[0]
        for q in (0.25, 0.5, 0.75, 0.95):
            approx = row[f"q{int(q * 100)}"]
            t = q * (len(vs) - 1)
            # the sketch's rank convention may land on either neighbor
            # of a fractional rank; the alpha guarantee is against the
            # order statistic it picked
            cands = [vs[int(np.floor(t))], vs[int(np.ceil(t))]]
            err = min(
                abs(approx - c) - tol * max(abs(c), 1e-9) for c in cands
            )
            assert err <= 0.01, (et, q, approx, cands)


def test_stratified_sample_rates_and_stability(entrymod, sf_dir, ray_session):
    """Keep rates approximate the per-lang targets and the decision is
    per-row stable (same doc always in or out across runs)."""
    from textextract_ray.pipelines.textops import STRATA_RATES, stratified_sample

    a = stratified_sample(sf_dir)
    b = stratified_sample(sf_dir)
    assert a["doc_id"].tolist() == b["doc_id"].tolist()  # run-stable
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["lang"]).to_pandas()
    totals = docs["lang"].value_counts()
    kept = a["lang"].value_counts()
    for lang, rate in STRATA_RATES.items():
        n = totals.get(lang, 0)
        if n < 50:
            continue  # too small for a rate assertion
        got = kept.get(lang, 0) / n
        assert abs(got - rate) < 0.15, (lang, got, rate)


def test_host_heavy_hitters_estimates_vs_exact(entrymod, sf_dir, ray_session):
    """CM estimates only overestimate; with 20 hosts in a 4096-wide
    sketch the top-k set and estimates should match exact counts. The
    query's own n_pages column (the broadcast-probe exact count) must
    equal the full groupby over the pages' url hosts."""
    from collections import Counter

    import pyarrow as pa

    from textextract_ray.functions.scalar import url_host
    from textextract_ray.pipelines.extract_pipeline import _documents_as_pages

    df = entrymod.queries()["host_heavy_hitters"](sf_dir)
    urls = _documents_as_pages(sf_dir).to_pandas()["url"]
    exact_map = Counter(url_host(pa.array(urls)).to_pylist())
    assert len(df) == 10
    for _, row in df.iterrows():
        true = exact_map[row["host"]]
        assert row["n_pages"] == true  # exact column IS the exact count
        assert row["est_count"] >= true  # CM never underestimates
        assert row["est_count"] <= true * 1.05 + 5  # and is tight here


def test_chunk_windows_invariants(entrymod, sf_dir, ray_session):
    """Every doc's chunks start at k*stride, have the declared token
    counts, and the last chunk ends exactly at the doc's token count —
    full coverage, fixed overlap."""
    df = entrymod.queries()["chunk_windows"](sf_dir)
    assert (df["n_tokens"] > 0).all()
    assert (df["chunk_text"].str.split().str.len() == df["n_tokens"]).all()
    for doc_id, g in list(df.groupby("doc_id"))[:50]:
        g = g.sort_values("chunk_id")
        assert list(g["chunk_id"]) == list(range(len(g)))
        assert (g["chunk_start"] == g["chunk_id"] * 48).all()
        # every chunk but the last is full-width; windows overlap by 16
        assert (g["n_tokens"].iloc[:-1] == 64).all() or len(g) == 1
        last = g.iloc[-1]
        total = last["chunk_start"] + last["n_tokens"]
        if len(g) > 1:
            # the previous chunk did NOT already reach the end
            prev = g.iloc[-2]
            assert prev["chunk_start"] + prev["n_tokens"] < total


def test_decontaminate_excludes_benchmark_and_flags_dups(
    entrymod, sf_dir, ray_session
):
    """The benchmark side (doc_id % 97 == 0) never appears in the
    output; planted exact-duplicate docs of benchmark docs are flagged
    contaminated with frac 1.0; contaminated == (n_shared > 0)."""
    df = entrymod.queries()["decontaminate"](sf_dir)
    assert (df["doc_id"] % 97 != 0).all()
    assert ((df["n_shared"] > 0) == df["contaminated"]).all()
    assert (df["n_shared"] <= df["n_grams"]).all()
    flagged = df[df["contaminated"]]
    assert len(flagged) > 0, "gate would be vacuous: no contaminated docs"
    assert (flagged["contam_frac"] > 0).all()


def test_heavy_hitters_thin_spread_host_nominated(ray_session):
    """A host spread thinly across many batches — never in any batch's
    local top — must still be nominated when its GLOBAL share clears
    the support threshold (the round-2 advisor's counterexample to
    local-top nomination). 8 dominant hosts per block plus one host
    appearing once per block (~1.2% globally, threshold 0.1%)."""
    import ray.data as rd

    from textextract_ray.pipelines.textops import heavy_hitters_over

    rows = []
    for block in range(40):
        for i in range(80):
            rows.append({"url": f"https://common{i % 8}.example.com/p{block}-{i}"})
        rows.append({"url": f"https://thin.example.com/only-{block}"})
    pages = rd.from_items(rows).repartition(40)
    df = heavy_hitters_over(pages, k=9, support_frac=0.001)
    assert "thin.example.com" in set(df["host"]), df
    # and its estimate is ≥ the true count (CM never underestimates)
    assert int(df[df["host"] == "thin.example.com"]["est_count"].iloc[0]) >= 40


def test_queries_within_driver_cap(entrymod):
    """The driver's correctness gate reports at most 50 queries (round
    2 exposed 52 and exactly the first 50 in dict order got rows —
    CORRECTNESS_r02.json). Keep the surface at or under the cap so
    every exposed query gets a driver verdict."""
    qs = entrymod.queries()
    assert len(qs) <= 50, f"{len(qs)} queries() entries exceed the 50-row driver cap"
    assert set(qs) == set(entrymod.oracle_sql())


def test_perplexity_buckets_semantics(tmp_path, ray_session):
    """Unigram-LM perplexity: a gibberish doc (all OOV under a small
    vocab) scores strictly higher than common-word docs; n_oov matches
    a pure-python recount; two runs are identical (vocab selection and
    scoring are layout-deterministic)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from textextract_ray.pipelines.textops import perplexity_buckets

    common = "the cat sat on the mat and the dog ran to the cat"
    texts = [common, common + " and the mat sat", "zyx qwv jkp bdg zyx qwv"]
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()), "text": texts}),
        str(tmp_path / "documents.parquet"),
    )
    a = perplexity_buckets(str(tmp_path), vocab_size=8)
    b = perplexity_buckets(str(tmp_path), vocab_size=8)
    assert a.equals(b)  # run-deterministic
    ppl = dict(zip(a["doc_id"], a["perplexity"]))
    assert ppl[3] > ppl[1] and ppl[3] > ppl[2]

    # pure-python OOV recount under the same top-8 (count desc, token asc) vocab
    import re
    from collections import Counter

    toks = [re.findall(r"[a-z]+", t.lower()) for t in texts]
    cnt = Counter(t for doc in toks for t in doc)
    vocab = {t for t, _ in sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:8]}
    want_oov = [sum(t not in vocab for t in doc) for doc in toks]
    assert a.sort_values("doc_id")["n_oov"].tolist() == want_oov


def test_perplexity_buckets_layout_invariant(tmp_path, sf_dir, ray_session):
    """The vocab top-V is exact regardless of block layout (local-top
    nomination + driver merge): the same corpus split across many tiny
    parquet files scores identically to the single-file original."""
    import pyarrow.parquet as pq

    from textextract_ray.pipelines.textops import perplexity_buckets

    single = perplexity_buckets(sf_dir, vocab_size=24)

    t = pq.read_table(f"{sf_dir}/documents.parquet")
    # same table as a DIRECTORY of 8 tiny shards at the path read_table
    # resolves (<dir>/documents.parquet) — pyarrow reads both layouts
    shard_dir = tmp_path / "sharded" / "documents.parquet"
    shard_dir.mkdir(parents=True)
    n = t.num_rows
    step = max(1, n // 7)
    for i, lo in enumerate(range(0, n, step)):
        pq.write_table(t.slice(lo, step), str(shard_dir / f"part-{i:02d}.parquet"))

    many = perplexity_buckets(str(tmp_path / "sharded"), vocab_size=24)
    pd.testing.assert_frame_equal(single, many)


def test_pack_sequences_matches_naive_prefix_sum(sf_dir, ray_session):
    """Concat-then-chunk packing equals a single-process prefix sum over
    the same \\S+ token counts in doc_id order — the distributed
    two-pass (bucket totals → exclusive offsets → in-bucket cumsum)
    introduces no drift, including across sequence boundaries."""
    import re

    import pyarrow.parquet as pq

    from textextract_ray.pipelines.textops import pack_sequences

    got = pack_sequences(sf_dir, capacity=512)
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    docs = sorted(
        zip(t["doc_id"].to_pylist(), t["text"].to_pylist()), key=lambda r: r[0]
    )
    pos = 0
    want = []
    for doc_id, text in docs:
        nt = len(re.findall(r"\S+", text or ""))
        n_seqs = 0 if nt == 0 else (pos + nt - 1) // 512 - pos // 512 + 1
        want.append((doc_id, nt, pos, pos // 512, pos % 512, n_seqs))
        pos += nt
    assert list(map(tuple, got.to_numpy())) == want
    # long docs genuinely cross boundaries in this corpus
    assert (got["n_seqs"] > 1).any()


def test_pack_sequences_edge_cases_and_layout(tmp_path, ray_session):
    """Empty docs span 0 sequences but still hold a correct offset; a
    doc longer than capacity spans several sequences; doc_id gaps are
    fine; and the result is invariant to parquet block layout."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from textextract_ray.pipelines.textops import pack_sequences

    texts = {
        1: "a b c",           # 3 tokens → seq 0
        2: "",                # empty → n_seqs 0, start 3
        3: None,              # NULL text counts 0 tokens (oracle coalesce)
        5: " ".join(["t"] * 23),  # crosses 8-token sequences 0..3
        9: "x",
        100: "y z",
    }
    table = pa.table(
        {
            "doc_id": pa.array(sorted(texts), pa.int64()),
            "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
        }
    )
    single = tmp_path / "one"
    single.mkdir()
    pq.write_table(table, str(single / "documents.parquet"))
    got = pack_sequences(str(single), capacity=8)

    assert got["doc_id"].tolist() == [1, 2, 3, 5, 9, 100]
    assert got["global_start"].tolist() == [0, 3, 3, 3, 26, 27]
    assert got["seq_id"].tolist() == [0, 0, 0, 0, 3, 3]
    assert got["seq_offset"].tolist() == [0, 3, 3, 3, 2, 3]
    assert got["n_seqs"].tolist() == [1, 0, 0, 4, 1, 1]

    sharded = tmp_path / "many" / "documents.parquet"
    sharded.mkdir(parents=True)
    for i in range(table.num_rows):
        pq.write_table(table.slice(i, 1), str(sharded / f"part-{i}.parquet"))
    again = pack_sequences(str(tmp_path / "many"), capacity=8, num_buckets=3)
    pd.testing.assert_frame_equal(got, again)


def test_events_windows_scopes(sf_dir, ray_session, con):
    """The consolidated tumbling+sliding query: each event lands in one
    hourly window and exactly two sliding windows, and the per-scope
    totals agree with an independent SQL recount."""
    from textextract_ray.pipelines.relational import events_windows

    got = events_windows(sf_dir)
    n_events = con.execute("SELECT count(*) FROM events").fetchone()[0]
    by_scope = got.groupby("scope")["n_events"].sum()
    assert int(by_scope["hourly"]) == n_events
    assert int(by_scope["sliding"]) == 2 * n_events


def test_pack_bins_constraints_and_determinism(tmp_path, sf_dir, ray_session):
    """Boundary-respecting packing: no bin exceeds capacity (oversize
    docs excepted — they sit alone, flagged truncated), every doc is
    assigned exactly once, docs never split, bins never cross doc_id
    range buckets, and the result is layout- and run-deterministic."""
    import pyarrow.parquet as pq

    from textextract_ray.pipelines.textops import pack_bins

    got = pack_bins(sf_dir, capacity=512)
    assert len(got) == 500 and got["doc_id"].is_unique

    fill = got[~got["truncated"]].groupby("bin_id")["n_tokens"].sum()
    assert (fill <= 512).all()
    # truncated == longer than capacity, and such docs open their own bin
    assert (got["truncated"] == (got["n_tokens"] > 512)).all()
    big = got[got["truncated"]]
    if len(big):
        others = got[~got["truncated"]].query("n_tokens > 0")
        assert not set(big["bin_id"]) & set(others["bin_id"])

    # next-fit in doc_id order: bin ids are non-decreasing in doc_id
    assert (got.sort_values("doc_id")["bin_id"].diff().dropna() >= 0).all()

    again = pack_bins(sf_dir, capacity=512)
    pd.testing.assert_frame_equal(got, again)

    # layout invariance: one-row-per-file sharding packs identically
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    shard_dir = tmp_path / "sharded" / "documents.parquet"
    shard_dir.mkdir(parents=True)
    step = max(1, t.num_rows // 11)
    for i, lo in enumerate(range(0, t.num_rows, step)):
        pq.write_table(t.slice(lo, step), str(shard_dir / f"p{i:02d}.parquet"))
    many = pack_bins(str(tmp_path / "sharded"), capacity=512)
    pd.testing.assert_frame_equal(got, many)

    # utilization sanity: next-fit wastes < 50% (its 2x bound) over
    # non-oversize bins
    used = fill.sum()
    assert used >= 0.5 * 512 * fill.size


def test_corpus_mix_copy_semantics(sf_dir, ray_session, con):
    """Weight w → floor(w) guaranteed copies per doc plus a fractional
    copy at rate frac(w): every doc of an upsampled source appears at
    least floor(w) times, never more than floor(w)+1, and the realized
    fractional rate is within sampling noise of frac(w). Repeat runs
    are identical (hash-derived, no RNG state)."""
    from textextract_ray.pipelines.textops import MIX_WEIGHTS, corpus_mix

    got = corpus_mix(sf_dir)
    again = corpus_mix(sf_dir)
    pd.testing.assert_frame_equal(got, again)

    n_by_lang = dict(
        con.execute("SELECT lang, count(*) FROM documents GROUP BY lang").fetchall()
    )
    copies = got.groupby(["lang", "doc_id"]).size()
    for lang, n_docs in n_by_lang.items():
        w = MIX_WEIGHTS[lang]
        full = int(w)
        per_doc = copies[lang] if full > 0 else None
        if full > 0:
            # every doc present, with full..full+1 copies
            assert len(per_doc) == n_docs
            assert per_doc.min() >= full and per_doc.max() <= full + 1
        frac = w - full
        n_extra = int((got["lang"] == lang).sum()) - full * n_docs
        assert abs(n_extra / n_docs - frac) < 0.15, (lang, n_extra, n_docs)


def test_device_admission_keeps_unparseable_users(tmp_path, ray_session):
    """A user whose EVERY event has unparseable props still appears
    with n_devices=0 (count(DISTINCT) over all-NULL is 0, not an
    absent row) — both engines use the device_info anchored parse, so
    non-minimal JSON counts as unparseable consistently."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from textextract_ray.pipelines.relational import device_admission

    _tiny_events(
        tmp_path,
        {
            "event_id": [1, 2, 3, 4],
            "ts": [f"2024-01-01T00:0{i}:00" for i in range(4)],
            "user_id": [1, 1, 2, 2],
            "props": ['{"k": 3, "v": 1}', "not-json", '{"k": 5}', '{"k": 13}'],
        },
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2], pa.int64()),
                "c_mktsegment": pa.array(["BUILDING", "BUILDING"], pa.string()),
            }
        ),
        tmp_path / "customer.parquet",
    )
    df = device_admission(str(tmp_path)).set_index("user_id")
    assert df.loc[1, "n_devices"] == 0  # non-minimal JSON + garbage → 0, kept
    assert df.loc[2, "n_devices"] == 1  # 5 % 8 == 13 % 8 == 5: one device
    assert bool(df.loc[1, "within_limit"])


def test_dataset_cores_stream_to_parquet_without_driver_pull(
    tmp_path, sf_dir, ray_session
):
    """The corpus-scale packers (pack_sequences_ds, pack_bins_ds) return
    ray.data.Datasets that a 100-TB caller consumes with write_parquet —
    no O(corpus) driver materialization in the core path. The gate
    wrapper (pack_sequences) is the only place pandas appears; its
    output must equal a read-back of the written Dataset."""
    import pyarrow.parquet as pq
    import ray

    from textextract_ray.pipelines.textops import (
        pack_bins_ds,
        pack_sequences,
        pack_sequences_ds,
    )
    from textextract_ray.sources import read_table

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    packed = pack_sequences_ds(docs, capacity=64)
    assert isinstance(packed, ray.data.Dataset)
    out = tmp_path / "packed"
    packed.write_parquet(str(out))
    back = (
        pq.read_table(str(out))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = pack_sequences(sf_dir, capacity=64)
    pd.testing.assert_frame_equal(back[want.columns.tolist()], want)

    bins = pack_bins_ds(docs, capacity=64)
    assert isinstance(bins, ray.data.Dataset)
