"""Conformance: the Ray pipeline's output is byte-identical per url to
the single-process oracle over the fixture corpus (FIXTURES.md §3), and
row sets match exactly after dedup.
"""

from __future__ import annotations

import pytest

from textextract_ray.datagen import page_row
from textextract_ray.oracle import extract_document


@pytest.fixture(scope="module")
def golden():
    """Oracle outputs for the 200-row corpus, keyed by url (F9 dups
    collapse to one entry — identical bytes, identical result)."""
    exp = {}
    for i in range(200):
        row = page_row(i, 1 << 18)
        if row["url"] not in exp:
            exp[row["url"]] = extract_document(row["html"])
    return exp


@pytest.fixture(scope="module")
def pipeline_df(ray_session, fixture_pages):
    from textextract_ray.pipelines.extract_pipeline import (
        dedup_by_url,
        extract_dataset,
    )
    import ray.data as rd

    ds = rd.read_parquet(fixture_pages)
    return dedup_by_url(extract_dataset(ds)).to_pandas()


def test_row_sets_match_exactly(pipeline_df, golden):
    assert set(pipeline_df["url"]) == set(golden)
    assert len(pipeline_df) == len(golden)  # dedup: no double urls


def test_byte_identity_per_url(pipeline_df, golden):
    for _, row in pipeline_df.iterrows():
        exp = golden[row["url"]]
        assert row["extracted_text"] == exp.text, row["url"]
        assert row["status"] == exp.status, row["url"]


def test_spans_identical(pipeline_df, golden):
    for _, row in pipeline_df.iterrows():
        got = [dict(s) for s in row["spans"]]
        assert got == golden[row["url"]].spans, row["url"]


def test_sizes_and_version_recorded(pipeline_df):
    ok = pipeline_df[pipeline_df.status == "ok"]
    assert (ok["request_size_bytes"] > 0).all()
    assert (ok["response_size_bytes"] > 0).all()
    assert (pipeline_df["extractor_version"] == "1.0.0").all()


def test_repartitioning_invariance(ray_session, fixture_pages, golden):
    """Byte-identity must not depend on batch composition: run with a
    different shard order + batch size and compare."""
    from textextract_ray.pipelines.extract_pipeline import (
        dedup_by_url,
        extract_dataset,
    )
    import ray.data as rd

    ds = rd.read_parquet(list(reversed(fixture_pages))).repartition(7)
    df = dedup_by_url(extract_dataset(ds, batch_size=17)).to_pandas()
    assert set(df["url"]) == set(golden)
    for _, row in df.iterrows():
        assert row["extracted_text"] == golden[row["url"]].text


def test_denylist_filter(ray_session, fixture_pages):
    import ray.data as rd
    from textextract_ray.stages.validate import denylist_filter

    ds = rd.read_parquet(fixture_pages)
    kept = denylist_filter(ds, ["host0.example", "host1.example"]).to_pandas()
    assert len(kept) > 0
    assert not kept["url"].str.contains("host0.example|host1.example").any()


def test_q3_hashjoin_matches_broadcast(ray_session, sf_dir):
    from textextract_ray.pipelines.relational import (
        q3_top_orders,
        q3_top_orders_hashjoin,
    )

    a = q3_top_orders(sf_dir)
    b = q3_top_orders_hashjoin(sf_dir)
    assert a["o_orderkey"].tolist() == b["o_orderkey"].tolist()
    assert (a["revenue"] - b["revenue"]).abs().max() < 1e-6


def test_q3_zero_budget_fully_bucketed_parity(ray_session, sf_dir, monkeypatch):
    """With the broadcast budget forced to 0, BOTH join levels must
    take the bucketed co-partition path (customer keys never pulled to
    the driver) and the answer must match the broadcast plan."""
    import textextract_ray.pipelines.relational as rel

    a = rel.q3_top_orders(sf_dir)
    monkeypatch.setattr(rel, "Q3_BROADCAST_BUDGET_KEYS", 0)
    b = rel.q3_top_orders(sf_dir)
    assert a["o_orderkey"].tolist() == b["o_orderkey"].tolist()
    assert (a["revenue"] - b["revenue"]).abs().max() < 1e-6


def test_pdf_routing_path(ray_session):
    """PdfExtract, the parser stage of PDF rows: a real PDF comes out ok
    with its exact text in lenient mode; strict mode raises on garbage
    with PDF magic and extracts a real PDF."""
    import pyarrow as pa

    from textextract_ray.pdf import build_pdf
    from textextract_ray.stages.extract import PdfExtract

    out = PdfExtract(strict=False)(
        pa.table({"url": ["https://pdf.example/routed"], "html": [build_pdf("routed pdf text")]})
    )
    assert out["status"].to_pylist() == ["ok"]
    assert out["extracted_text"].to_pylist() == ["routed pdf text"]

    # strict mode: garbage with PDF magic raises; a real PDF extracts
    with pytest.raises(ValueError, match="strict"):
        PdfExtract(strict=True)(pa.table({"url": ["u"], "html": [b"%PDF-x" + b"\x00" * 64]}))
    ok = PdfExtract(strict=True)(
        pa.table({"url": ["u"], "html": [build_pdf("strict path works")]})
    )
    assert ok["extracted_text"].to_pylist() == ["strict path works"]
    assert ok["status"].to_pylist() == ["ok"]


def test_schema_validation_fails_fast(ray_session):
    """A malformed pages table (wrong column types) fails at the
    boundary with a named stage, not deep inside an actor."""
    import pytest as _pytest
    import ray.data as rd

    from textextract_ray.pipelines.extract_pipeline import extract_dataset

    bad = rd.from_items([{"url": 1, "bogus": "x"}])
    with _pytest.raises(Exception, match="schema mismatch|KeyError|Field"):
        extract_dataset(bad).to_pandas()


def test_null_html_rows_not_dropped(ray_session):
    """A null html row must flow through extract_dataset as
    status='invalid' — never silently vanish."""
    import pyarrow as pa
    import ray.data as rd

    from textextract_ray.datagen import EPOCH_US
    from textextract_ray.pipelines.extract_pipeline import extract_dataset
    from textextract_ray.schemas import PAGES_SCHEMA

    rows = [
        {"url": "https://h/ok", "warc_ts": EPOCH_US, "html": b"x" * 100, "text": "", "lang": "en"},
        {"url": "https://h/null", "warc_ts": EPOCH_US, "html": None, "text": "", "lang": "en"},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA))
    out = extract_dataset(ds).to_pandas()
    assert set(out["url"]) == {"https://h/ok", "https://h/null"}
    assert out.set_index("url").loc["https://h/null", "status"] == "invalid"


def test_per_language_dispatch_observable(ray_session):
    """Same text under different lang tags routes to different models
    (the per-language dispatch A1/A2): stopword counts differ per lang,
    extraction itself stays byte-identical."""
    import pyarrow as pa

    from textextract_ray.stages.extract import LangDispatchExtract

    text = "the cat and the hat der die le la el zz"
    html = f"<html><body><article><p>{text}</p></article></body></html>".encode()
    batch = pa.table(
        {
            "url": [f"https://h/{l}" for l in ("en", "de", "fr", "es", "zh", "xx")],
            "html": [html] * 6,
            "lang": ["en", "de", "fr", "es", "zh", "xx"],
        }
    )
    out = LangDispatchExtract()(batch)
    assert out["extracted_text"].to_pylist() == [text] * 6
    stops = dict(zip(out["lang"].to_pylist(), out["n_stopwords"].to_pylist()))
    assert stops["en"] == 3   # the, and, the
    assert stops["de"] == 2   # der, die
    assert stops["fr"] == 2   # le, la
    assert stops["es"] == 2   # la? no — el, la
    assert stops["zh"] == 0   # no CJK markers in ASCII text
    assert stops["xx"] == 0   # unknown lang -> null model
    kept = dict(zip(out["lang"].to_pylist(), out["n_kept"].to_pylist()))
    assert kept["en"] == out["n_tokens"][0].as_py() - 3


@pytest.mark.parametrize(
    "budget",
    ["SCAN_FOLD_BUDGET_ROWS", "DEDUP_DRIVER_BUDGET_ROWS", "DEDUP_DRIVER_BUDGET_BYTES"],
)
def test_dedup_by_url_distributed_fallback_matches_driver_path(
    ray_session, fixture_pages, monkeypatch, budget
):
    """dedup_by_url has a driver arm and a past-budget distributed arm
    at two steps: the key scan (driver fold vs coalesced groupby, past
    SCAN_FOLD_BUDGET_ROWS) and the dup-row resolve (driver Arrow pass
    vs bucketed groupby, past either DEDUP_DRIVER_BUDGET_*). Zeroing
    one budget forces its arm; each must equal the driver arm row for
    row."""
    from textextract_ray.pipelines import extract_pipeline as ep
    import ray.data as rd

    import pandas as pd

    def run():
        ds = ep.extract_dataset(rd.read_parquet(fixture_pages))
        out = ep.dedup_by_url(ds).to_pandas().drop(columns=["processing_time_ms"])
        return out.sort_values("url").reset_index(drop=True)

    driver = run()
    monkeypatch.setattr(ep, budget, 0)
    forced = run()
    assert driver["url"].is_unique
    pd.testing.assert_frame_equal(driver, forced)
    # dups actually existed in the fixture (else this test is vacuous)
    raw = ep.extract_dataset(rd.read_parquet(fixture_pages)).count()
    assert raw > len(driver)


def _recount(ds, partition_id: int) -> dict:
    """Counters of ``ds``'s rows, summed on the driver in one batch."""
    import pyarrow as pa
    import ray

    from textextract_ray.stages.metrics import counter_totals

    table = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return {"partition_id": partition_id} | counter_totals(table)


@pytest.mark.parametrize(
    "budget",
    [None, "SCAN_FOLD_BUDGET_ROWS", "DEDUP_DRIVER_BUDGET_ROWS", "DEDUP_DRIVER_BUDGET_BYTES"],
)
def test_dedup_by_url_counters_equal_recount(
    ray_session, fixture_pages, monkeypatch, budget
):
    """dedup_by_url(partition_id=) returns the counters of the rows it
    returns, exactly (processing_time_ms_total included, so the dropped
    duplicates must be the very rows subtracted), in the driver arm
    (None) and with each budget zeroed to force its distributed arm."""
    from textextract_ray.pipelines import extract_pipeline as ep
    import ray.data as rd

    if budget is not None:
        monkeypatch.setattr(ep, budget, 0)
    ds = ep.extract_dataset(rd.read_parquet(fixture_pages)).materialize()
    out, counters = ep.dedup_by_url(ds, partition_id=3)
    out = out.materialize()
    assert out.count() == 184 < ds.count()  # the F9 duplicates dropped
    assert counters == _recount(out, 3)
    assert counters == ep.aggregate_counters(out, 3)


class _Executions:
    """Records the plan of every Dataset execution started (the
    executions Ray Data logs as "Starting execution of Dataset")."""

    def __init__(self, monkeypatch):
        from ray.data._internal.execution.operators.input_data_buffer import (
            InputDataBuffer,
        )
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        self.plans: list = []  # executions that run an operator
        self.every: list = []  # every execution, input-only ones too
        orig = StreamingExecutor.execute

        def execute(executor, dag, *args, **kwargs):
            self.every.append(dag.dag_str)
            if not isinstance(dag, InputDataBuffer):
                self.plans.append(dag.dag_str)
            return orig(executor, dag, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", execute)

    def since(self, n: int) -> list:
        return self.plans[n:]


def test_job_partition_execution_ratchet(
    ray_session, fixture_pages, monkeypatch, tmp_path
):
    """A run_job_versioned partition holding duplicate urls starts one
    Dataset execution, the extract: the key+counters scan, the dup
    pull, the loser drop and the stage write are plain tasks. One
    dedup_by_url call on a materialized input starts none in its
    driver arm, and exactly one (the scan and its groupby, no re-scan)
    past SCAN_FOLD_BUDGET_ROWS."""
    from textextract_ray.pipelines import extract_pipeline as ep
    import ray.data as rd

    runs = _Executions(monkeypatch)
    ep.run_job_versioned(
        fixture_pages, str(tmp_path / "t"), shards_per_partition=len(fixture_pages)
    )
    assert len(runs.plans) <= 1, runs.plans
    assert not any("AllToAllOperator" in p for p in runs.plans), runs.plans

    ds = ep.extract_dataset(rd.read_parquet(fixture_pages)).materialize()
    n = len(runs.plans)
    out = ep.dedup_by_url(ds)
    assert runs.since(n) == []
    assert out.count() < ds.count()  # the duplicates were there to drop
    monkeypatch.setattr(ep, "SCAN_FOLD_BUDGET_ROWS", 0)
    n = len(runs.plans)
    ep.dedup_by_url(ds)
    scans = runs.since(n)
    assert len(scans) == 1, scans
    assert scans[0].count("MapBatches(_key_partials)") == 1, scans


class _Scans:
    """Records the table of every table-file read that
    ``sources.scan_table`` starts (block-input scan tasks are not
    reads)."""

    def __init__(self, monkeypatch):
        import os

        from textextract_ray import sources

        self.tables: list = []
        orig = sources._scan
        tables = self.tables

        class Counting:
            def remote(self, src, *args):
                if isinstance(src, str):
                    tables.append(os.path.basename(src).removesuffix(".parquet"))
                return orig.remote(src, *args)

        monkeypatch.setattr(sources, "_scan", Counting())

    def since(self, n: int) -> dict:
        from collections import Counter

        return dict(Counter(self.tables[n:]))


# table-file reads per query_mix query: one per table the query reads
# (ann_topk reads embeddings twice: the query nomination, then the
# top-k scan)
QUERY_MIX_SCANS = {
    "q1_pricing_summary": {"lineitem": 1},
    "q3_top_orders": {"customer": 1, "orders": 1, "lineitem": 1},
    "usage_rollup": {"events": 1},
    "dedup_exact": {"documents": 1},
    "token_stats": {"documents": 1},
    "minhash_near_dups": {"documents": 1},
    "ann_topk": {"embeddings": 2},
}


def test_query_mix_plain_task_ratchet(ray_session, sf_dir, monkeypatch):
    """Under the default budgets none of the seven benchmark queries
    starts a Dataset execution that runs an operator: every table scan
    is one plain task per file (QUERY_MIX_SCANS), folded on the
    driver. A query that returns a driver-built Dataset starts one
    input-only execution when it is read back, and none starts more."""
    import __ray_entry__ as entry

    qs = entry.queries()
    runs = _Executions(monkeypatch)
    scans = _Scans(monkeypatch)
    for name, tables in QUERY_MIX_SCANS.items():
        n, m, r = len(runs.plans), len(runs.every), len(scans.tables)
        res = qs[name](sf_dir)
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        assert runs.since(n) == [], name
        assert len(runs.every[m:]) <= 1, (name, runs.every[m:])
        assert scans.since(r) == tables, name


def test_ann_topk_ivf_reads_embeddings_once(ray_session, sf_dir, monkeypatch):
    """ann_topk_ivf reads its table file once: the query nomination, the
    centroid training and the probed top-k all run over the blocks of
    one scan_table read, and no Dataset execution reads parquet."""
    from textextract_ray.pipelines.textops import ann_topk_ivf

    runs = _Executions(monkeypatch)
    scans = _Scans(monkeypatch)
    out = ann_topk_ivf(sf_dir)
    assert len(out) > 0
    assert scans.since(0) == {"embeddings": 1}
    assert not any("ReadParquet" in p for p in runs.every), runs.every


def _same_frame(got, want) -> None:
    """The gate's comparison (``tools/check_queries.normalize``):
    order-insensitive rows, floats to rtol 1e-9."""
    import pandas as pd

    from tools.check_queries import normalize

    pd.testing.assert_frame_equal(
        normalize(got), normalize(want), check_dtype=False, check_exact=False, rtol=1e-9
    )


def test_query_mix_forced_distributed_equals_driver_arms(ray_session, sf_dir, monkeypatch):
    """With every budget a query_mix query checks at 0, the seven
    queries run their distributed arms (each starts an execution that
    runs an operator) over the refs their scans returned: the same
    answer as the driver arms, and still one read per (query, table) —
    no arm re-scans a table."""
    import __ray_entry__ as entry
    import textextract_ray.pipelines.relational as rel
    import textextract_ray.stages.dedup as dd
    import textextract_ray.stages.similarity as sim
    from tools.check_queries import to_pandas

    qs = entry.queries()
    want = {name: to_pandas(qs[name](sf_dir)) for name in QUERY_MIX_SCANS}
    for mod, budget in (
        (rel, "AGG_FOLD_BUDGET_ROWS"),
        (rel, "Q3_BROADCAST_BUDGET_KEYS"),
        (dd, "GROUP_APPLY_FOLD_BUDGET_ROWS"),
        (sim, "TOPK_MERGE_BUDGET_ROWS"),
    ):
        monkeypatch.setattr(mod, budget, 0)
    runs = _Executions(monkeypatch)
    scans = _Scans(monkeypatch)
    for name, tables in QUERY_MIX_SCANS.items():
        n, r = len(runs.plans), len(scans.tables)
        got = to_pandas(qs[name](sf_dir))
        assert runs.since(n), name
        assert scans.since(r) == tables, name
        assert len(got) > 0, name
        _same_frame(got, want[name])


def _duckdb_answer(tmp_path, tables: dict, query: str):
    """DuckDB's answer to ``query``'s gate SQL over ``tables`` written
    as parquet files under ``tmp_path``."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    con = duckdb.connect()
    for name, t in tables.items():
        pq.write_table(t, str(tmp_path / f"{name}.parquet"))
        con.execute(
            f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{tmp_path}/{name}.parquet')"
        )
    try:
        return con.execute(entry.oracle_sql()[query]).fetchdf()
    finally:
        con.close()


def test_usage_rollup_null_user_matches_duckdb_both_arms(ray_session, tmp_path, monkeypatch):
    """NULL user_id events form their own day and month groups, as in
    SQL GROUP BY, in the fold arm and in the distributed groupby arm;
    so does a NULL ts (a NULL bucket)."""
    import pyarrow as pa

    import textextract_ray.pipelines.relational as rel

    ts = pa.array(
        ["2024-01-01 10:00", "2024-01-01 11:00", "2024-01-02 09:00",
         "2024-02-03 08:00", "2024-01-01 12:00", None],
        pa.string(),
    ).cast(pa.timestamp("us"))
    events = pa.table(
        {
            "user_id": pa.array([7, None, None, 7, 8, 8], pa.int64()),
            "ts": ts,
            "value": pa.array([1.5, 2.0, 4.0, None, 3.25, 1.0]),
            "event_type": pa.array(["ok", "error", "ok", "error", "ok", "ok"]),
        }
    )
    want = _duckdb_answer(tmp_path, {"events": events}, "usage_rollup")
    assert want["user_id"].isna().sum() == 3  # two NULL-user days, one month
    assert want["bucket"].isna().sum() == 2  # user 8's NULL-ts day and month
    _same_frame(rel.usage_rollup(str(tmp_path)), want)
    monkeypatch.setattr(rel, "AGG_FOLD_BUDGET_ROWS", 0)
    _same_frame(rel.usage_rollup(str(tmp_path)), want)


def test_q3_null_join_keys_match_duckdb_all_arms(ray_session, tmp_path, monkeypatch):
    """q3 drops NULL o_custkey and NULL l_orderkey rows, as SQL's inner
    join does, in the broadcast/fold arm, the distributed merge and
    the bucketed hash join. A NULL o_orderkey joins nothing and
    whitelists no customer, and a NULL revenue stays out of its
    order's sum without letting its order into the join."""
    import pyarrow as pa

    import textextract_ray.pipelines.relational as rel

    tables = {
        "customer": pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_mktsegment": pa.array(["BUILDING", "BUILDING", "AUTOMOBILE"]),
            }
        ),
        "orders": pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12, 20, None, 30], pa.int64()),
                "o_custkey": pa.array([1, 1, None, 2, 3, 3], pa.int64()),
            }
        ),
        "lineitem": pa.table(
            {
                "l_orderkey": pa.array([10, 10, 11, 12, 20, None, 30, 30], pa.int64()),
                "l_extendedprice": pa.array(
                    [100.0, 50.0, 70.0, 900.0, None, 800.0, 40.0, None]
                ),
                "l_discount": pa.array([0.1, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
            }
        ),
    }
    want = _duckdb_answer(tmp_path, tables, "q3_top_orders")
    assert sorted(want["o_orderkey"]) == [10, 11, 20]
    _same_frame(rel.q3_top_orders(str(tmp_path)), want)
    monkeypatch.setattr(rel, "AGG_FOLD_BUDGET_ROWS", 0)
    _same_frame(rel.q3_top_orders(str(tmp_path)), want)
    monkeypatch.setattr(rel, "Q3_BROADCAST_BUDGET_KEYS", 0)
    _same_frame(rel.q3_top_orders(str(tmp_path)), want)


def test_fused_matches_dataset_path(ray_session, fixture_pages):
    """extract_files (parquet decode inside the extract task) must be
    byte-identical to dedup_by_url(extract_dataset(rd.read_parquet(...))) —
    same stages, different data motion. Timing column excluded
    (wall-clock)."""
    import pandas as pd

    from textextract_ray.pipelines.extract_pipeline import (
        dedup_by_url,
        extract_dataset,
        extract_files,
    )
    import ray.data as rd

    drop = ["processing_time_ms"]
    a = (
        extract_files(fixture_pages, batch_size=32)
        .to_pandas()
        .drop(columns=drop)
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        dedup_by_url(extract_dataset(rd.read_parquet(fixture_pages)))
        .to_pandas()
        .drop(columns=drop)
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    # directory form resolves to the same shard list
    import os

    d = os.path.dirname(fixture_pages[0])
    c = extract_files(d, dedup=False)
    assert c.count() == 200


def test_agg_fold_fallback_arm_parity(ray_session, sf_dir, monkeypatch):
    """q3 and usage_rollup take a budgeted driver fold over per-block
    partial aggregates; past the budget they must fall back to the
    distributed groupby merge with an identical answer. Forcing
    `_fold_partials` to report past-budget exercises the fallback."""
    import textextract_ray.pipelines.relational as rel

    import pandas as pd

    from textextract_ray.pipelines import textops as tx

    a_q3 = rel.q3_top_orders(sf_dir)
    a_roll = rel.usage_rollup(sf_dir)
    a_q1 = rel.q1_pricing_summary(sf_dir)
    a_tok = tx.token_stats(sf_dir)
    monkeypatch.setattr(rel, "_fold_partials", lambda *a, **k: None)
    b_q3 = rel.q3_top_orders(sf_dir)
    b_roll = rel.usage_rollup(sf_dir)
    b_q1 = rel.q1_pricing_summary(sf_dir)
    b_tok = tx.token_stats(sf_dir)
    assert a_q3["o_orderkey"].tolist() == b_q3["o_orderkey"].tolist()
    assert (a_q3["revenue"] - b_q3["revenue"]).abs().max() < 1e-6
    pd.testing.assert_frame_equal(
        a_roll.reset_index(drop=True), b_roll.reset_index(drop=True)
    )
    # q1 floats merge in a different association order across arms
    for c in a_q1.columns:
        if a_q1[c].dtype.kind == "f":
            assert (a_q1[c] - b_q1[c]).abs().max() < 1e-4
        else:
            assert a_q1[c].tolist() == b_q1[c].tolist()
    # token_stats sums are integers: bit-identical across arms
    pd.testing.assert_frame_equal(
        a_tok.reset_index(drop=True), b_tok.reset_index(drop=True)
    )


def test_token_stats_null_text_avg_semantics(ray_session, tmp_path):
    """avg_tokens divides by the NON-NULL text count (SQL AVG
    semantics), while n_docs counts all rows — pinned with an injected
    null text, in both merge arms."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import textextract_ray.pipelines.relational as rel
    from textextract_ray.pipelines import textops as tx

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["one two three", None, "four five"], pa.string()),
            "lang": pa.array(["en", "en", "en"], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = tx.token_stats(str(tmp_path))
    assert out["n_docs"].tolist() == [3]
    assert out["total_tokens"].tolist() == [5]
    assert out["avg_tokens"].tolist() == [2.5]  # 5 / 2 non-null, not 5/3
    # distributed arm agrees
    orig = rel._fold_partials
    try:
        rel._fold_partials = lambda *a, **k: None
        out2 = tx.token_stats(str(tmp_path))
    finally:
        rel._fold_partials = orig
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), out2.reset_index(drop=True)
    )


def test_token_stats_null_lang_group_survives(ray_session, tmp_path):
    """A NULL lang forms its own group (SQL GROUP BY semantics) in
    BOTH merge arms — pandas' default dropna=True must not eat it."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import textextract_ray.pipelines.relational as rel
    from textextract_ray.pipelines import textops as tx

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["one two", "three", "four five six"], pa.string()),
            "lang": pa.array(["en", None, None], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = tx.token_stats(str(tmp_path))
    assert len(out) == 2
    null_row = out[out["lang"].isna()]
    assert null_row["n_docs"].tolist() == [2]
    assert null_row["total_tokens"].tolist() == [4]
    orig = rel._fold_partials
    try:
        rel._fold_partials = lambda *a, **k: None
        out2 = tx.token_stats(str(tmp_path))
    finally:
        rel._fold_partials = orig
    a = out.sort_values("lang", na_position="last").reset_index(drop=True)
    b = out2.sort_values("lang", na_position="last").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_q1_null_measures_match_duckdb_both_arms(ray_session, tmp_path, monkeypatch):
    """q1 over a lineitem holding NULL measures equals DuckDB's answer
    to the gate SQL in BOTH merge arms: an all-NULL l_quantity group
    sums and averages to NULL (not 0.0), and each avg divides by its
    column's non-null count, not by count(*)."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    import textextract_ray.pipelines.relational as rel

    t = pa.table(
        {
            "l_returnflag": pa.array(["A", "A", "N", "N", "N", None, "R"], pa.string()),
            "l_linestatus": pa.array(["O", "O", "F", "F", "F", "O", "F"], pa.string()),
            "l_quantity": pa.array([None, None, 1.0, None, 3.0, 4.0, 5.0]),
            "l_extendedprice": pa.array([10.0, 20.0, None, 40.0, 50.0, None, 70.0]),
            "l_discount": pa.array([0.1, None, 0.2, 0.3, None, 0.05, None]),
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{tmp_path}/lineitem.parquet')"
    )
    want = con.execute(entry.oracle_sql()["q1_pricing_summary"]).fetchdf()
    con.close()
    assert want["sum_qty"].isna().tolist() == [True, False, False, False]

    def same(got):
        assert list(got.columns) == list(want.columns)
        assert len(got) == len(want)
        for c in want.columns:
            g, w = got[c], want[c]
            if w.dtype.kind == "f":
                assert np.allclose(g.astype(float), w, rtol=0, atol=1e-9, equal_nan=True), c
            else:
                assert [None if x is None or x != x else x for x in g.tolist()] == [
                    None if x is None or x != x else x for x in w.tolist()
                ], c

    same(rel.q1_pricing_summary(str(tmp_path)))
    monkeypatch.setattr(rel, "AGG_FOLD_BUDGET_ROWS", 0)
    same(rel.q1_pricing_summary(str(tmp_path)))


def test_q1_null_group_key_both_arms(ray_session, tmp_path):
    """A NULL l_returnflag forms its own group in BOTH q1 merge arms
    (fold keeps it via dropna=False; the past-budget arm masks key
    null-ness through the Ray groupby and restores it)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import textextract_ray.pipelines.relational as rel

    t = pa.table(
        {
            "l_returnflag": pa.array(["A", None, None], pa.string()),
            "l_linestatus": pa.array(["O", "O", "O"], pa.string()),
            "l_quantity": pa.array([1.0, 2.0, 3.0]),
            "l_extendedprice": pa.array([10.0, 20.0, 30.0]),
            "l_discount": pa.array([0.0, 0.1, 0.2]),
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    a = rel.q1_pricing_summary(str(tmp_path))
    assert len(a) == 2
    nrow = a[a["l_returnflag"].isna()]
    assert nrow["count_order"].tolist() == [2]
    assert nrow["sum_qty"].tolist() == [5.0]
    orig = rel._fold_partials
    try:
        rel._fold_partials = lambda *x, **k: None
        b = rel.q1_pricing_summary(str(tmp_path))
    finally:
        rel._fold_partials = orig
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )
