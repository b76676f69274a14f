"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init`` / ``ray.shutdown`` here or in the library code these
callables use.

Every ``queries()`` entry is one operator family from SURVEY.md §2 (or
the training-data additions: dedup ladder, ANN, text analysis); SQL-
expressible ones have a DuckDB oracle in ``oracle_sql()`` with column
names matching the Ray result exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: documents →
    synthesized boilerplate-laden pages → validate → annotate →
    extract, one task stage (``extract_dataset``). Returns the
    extracted table."""
    from textextract_ray.pipelines.extract_pipeline import (
        _documents_as_pages,
        extract_dataset,
    )

    return extract_dataset(
        _documents_as_pages("/root/testdata/sf0.001")
    ).drop_columns(["spans"])


def queries() -> dict[str, Callable[[str], Any]]:
    from textextract_ray.pipelines import extract_pipeline as ep
    from textextract_ray.pipelines import relational as rel
    from textextract_ray.pipelines import textops as tx

    return {
        # extraction (the north_rule invariant, SQL-checkable)
        "extract_documents": ep.extract_documents,
        "extract_pdf_documents": ep.extract_pdf_documents,
        "extract_localized": ep.extract_localized,
        "extract_spans": ep.extract_spans,
        # relational / metering operators (SURVEY.md §2.5-2.7)
        "q1_pricing_summary": rel.q1_pricing_summary,
        "q3_top_orders": rel.q3_top_orders,
        # daily + monthly counters in one scan (consolidated from the
        # former usage_daily / usage_monthly slots — 50-cap)
        "usage_rollup": rel.usage_rollup,
        "remaining_quota": rel.remaining_quota,
        "credit_admission": rel.credit_admission,
        "device_admission": rel.device_admission,
        "device_info": rel.device_info,
        # global latest-N + per-user latest-k in one scan (consolidated
        # from the former separate recent_events / recent_events_per_user
        # slots — 50-query gate cap)
        "recent_events": rel.recent_events_combined,
        "latest_order_per_customer": rel.latest_release_per_user,
        "filter_regex_count": rel.filter_regex_count,
        "dedup_exact": rel.dedup_exact_documents,
        "customer_nation_region": rel.customer_nation_region,
        "period_usage": rel.period_usage,
        "events_in_range": rel.events_in_range,
        # tumbling + sliding in one scan (consolidated from the former
        # events_hourly_window / events_sliding_window slots — 50-cap)
        "events_windows": rel.events_windows,
        "asof_latest_order": rel.asof_latest_order,
        "session_counts": rel.session_counts,
        "props_extract": rel.props_extract,
        "running_user_totals": rel.running_user_totals,
        "parts_by_brand": rel.parts_by_brand,
        "supplier_by_nation": rel.supplier_by_nation,
        # text analysis / training-data ops
        "token_stats": tx.token_stats,
        "fingerprints": tx.fingerprints,
        "decontaminate": tx.decontaminate,
        "cap_per_host": tx.cap_per_host,
        "stratified_sample": tx.stratified_sample,
        # weighted multi-epoch corpus mixing (up/down-sampling by
        # source weight, deterministic per-copy hash)
        "corpus_mix": tx.corpus_mix,
        "host_heavy_hitters": tx.host_heavy_hitters,
        "quality_scores": tx.quality_scores,
        "chunk_windows": tx.chunk_windows,
        "pii_scrub": tx.pii_scrub,
        # CCNet-style LM-perplexity bucketing; vocab_size=24 (of the
        # synthetic corpus's 31 distinct tokens) so the OOV floor path
        # is genuinely exercised, not vacuous
        "perplexity_buckets": lambda sf_dir: tx.perplexity_buckets(
            sf_dir, vocab_size=24
        ),
        # GPT-style concat-then-chunk sequence packing (distributed
        # prefix sum, no global sort)
        "pack_sequences": tx.pack_sequences,
        # dedup ladder (sketch-based: deterministic, pytest-checked)
        "minhash_near_dups": tx.minhash_near_dups,
        "simhash_near_dups": tx.simhash_near_dups,
        "embedding_near_dups": tx.embedding_near_dups,
        "semantic_dedup": tx.semantic_dedup,
        "ngram_jaccard": tx.ngram_jaccard,
        # similarity search
        "ann_topk": tx.ann_topk,
        "ann_topk_ivf": tx.ann_topk_ivf,
        "clean_corpus": tx.clean_corpus,
        "approx_distinct": tx.approx_distinct,
        "approx_quantiles": tx.approx_quantiles,
        # multimodal plumbing (stubbed codecs, real Ray stages)
        "image_metadata": tx.image_metadata,
        "media_features": tx.media_features,
        "frame_samples": tx.frame_samples,
    }


def _plan_values() -> str:
    """The quota plan dimension as a SQL VALUES clause — single
    definition shared with the Ray side (relational.PLAN_DIM)."""
    from textextract_ray.pipelines.relational import PLAN_DIM_SQL

    return PLAN_DIM_SQL


def oracle_sql() -> dict[str, str]:
    url_expr = (
        "concat('https://host', CAST(doc_id % 20 AS VARCHAR), "
        "'.example/doc/', CAST(doc_id AS VARCHAR))"
    )
    return {
        "extract_documents": f"""
            SELECT {url_expr} AS url, text AS extracted_text, 'ok' AS status
            FROM documents ORDER BY url
        """,
        "extract_pdf_documents": f"""
            SELECT {url_expr} AS url, text AS extracted_text, 'ok' AS status
            FROM documents ORDER BY url
        """,
        # per-language model dispatch: the stopword pattern is chosen
        # by the row's lang column (same pattern table as the Ray
        # actors' compiled models — RE2 both sides)
        "extract_localized": f"""
            WITH m AS (
                SELECT {url_expr} AS url, lang, text AS extracted_text,
                    len(regexp_extract_all(text, '\\S+')) AS n_tokens,
                    CASE lang
                        WHEN 'en' THEN len(regexp_extract_all(lower(text), '\\b(the|and|of|to|in|a|is|that|for|with)\\b'))
                        WHEN 'de' THEN len(regexp_extract_all(lower(text), '\\b(der|die|das|und|ist|nicht|mit|ein|eine|zu)\\b'))
                        WHEN 'fr' THEN len(regexp_extract_all(lower(text), '\\b(le|la|les|et|est|des|du|dans|pour|que)\\b'))
                        WHEN 'es' THEN len(regexp_extract_all(lower(text), '\\b(el|la|los|las|y|es|del|en|que|por)\\b'))
                        WHEN 'zh' THEN len(regexp_extract_all(lower(text), '(的|了|和|是|在)'))
                        ELSE 0
                    END AS n_stopwords
                FROM documents
            )
            SELECT url, lang, extracted_text,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(n_stopwords AS BIGINT) AS n_stopwords,
                   CAST(greatest(n_tokens - n_stopwords, 0) AS BIGINT) AS n_kept
            FROM m ORDER BY url
        """,
        "extract_spans": f"""
            SELECT {url_expr} AS url, 0 AS span_start,
                   length(text) AS span_end, 'text' AS span_kind
            FROM documents ORDER BY url
        """,
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 4) AS sum_qty,
                   round(sum(l_extendedprice), 4) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
                   count(*) AS count_order,
                   round(avg(l_quantity), 4) AS avg_qty,
                   round(avg(l_extendedprice), 4) AS avg_price,
                   round(avg(l_discount), 4) AS avg_disc
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "q3_top_orders": """
            SELECT o.o_orderkey,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 4) AS revenue
            FROM customer c
            JOIN orders o ON o.o_custkey = c.c_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            WHERE c.c_mktsegment = 'BUILDING'
            GROUP BY o.o_orderkey
            ORDER BY sum(l.l_extendedprice * (1 - l.l_discount)) DESC, o.o_orderkey
            LIMIT 10
        """,
        "usage_rollup": """
            WITH x AS (
                SELECT 'day' AS scope, user_id,
                       strftime(ts, '%Y-%m-%d') AS bucket, value, event_type
                FROM events
                UNION ALL
                SELECT 'month', user_id, strftime(ts, '%Y-%m'), value, event_type
                FROM events
            )
            SELECT scope, user_id, bucket,
                   count(*) AS requests_count,
                   round(sum(value), 4) AS total_value,
                   CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS error_count
            FROM x GROUP BY scope, user_id, bucket
            ORDER BY scope, user_id, bucket
        """,
        # per-plan quotas: the user ⋈ subscription ⋈ plan resolution
        # (reference models.py:614-637) — both sides join the SAME
        # 5-row plan dimension (PLAN_DIM / PLAN_DIM_SQL in
        # pipelines/relational.py)
        "remaining_quota": f"""
            WITH plan AS (SELECT * FROM {_plan_values()}),
            uplan AS (
                SELECT c.c_custkey AS user_id, p.max_requests
                FROM customer c JOIN plan p ON p.mktsegment = c.c_mktsegment
            )
            SELECT e.user_id, CAST(count(*) AS BIGINT) AS used_requests,
                   CAST(u.max_requests AS BIGINT) AS max_requests,
                   CAST(greatest(0, u.max_requests - count(*)) AS BIGINT)
                       AS remaining_requests,
                   count(*) < u.max_requests AS can_make_request
            FROM events e JOIN uplan u ON u.user_id = e.user_id
            GROUP BY e.user_id, u.max_requests ORDER BY e.user_id
        """,
        # consolidated: global latest-100 ('global') + per-user latest-3
        # ('user') from one events scan
        "recent_events": """
            WITH g AS (
                SELECT 'global' AS scope, user_id, event_id, ts, event_type
                FROM events ORDER BY ts DESC, event_id DESC LIMIT 100
            ), u AS (
                SELECT 'user' AS scope, user_id, event_id, ts, event_type FROM (
                    SELECT user_id, event_id, ts, event_type,
                           row_number() OVER (
                               PARTITION BY user_id ORDER BY ts DESC, event_id DESC
                           ) AS rn
                    FROM events
                ) WHERE rn <= 3
            )
            SELECT * FROM (SELECT * FROM g UNION ALL SELECT * FROM u)
            ORDER BY scope, user_id, ts DESC, event_id DESC
        """,
        "credit_admission": f"""
            WITH plan AS (SELECT * FROM {_plan_values()}),
            uplan AS (
                SELECT c.c_custkey AS user_id, p.max_requests AS mr, p.credits AS cr
                FROM customer c JOIN plan p ON p.mktsegment = c.c_mktsegment
            ),
            ordered AS (
                SELECT e.user_id, e.event_id, u.mr, u.cr,
                       row_number() OVER (
                           PARTITION BY e.user_id ORDER BY e.ts, e.event_id
                       ) - 1 AS seq
                FROM events e JOIN uplan u ON u.user_id = e.user_id
            )
            SELECT user_id,
                   CAST(sum(CASE WHEN seq < mr THEN 1 ELSE 0 END) AS BIGINT)
                       AS admitted_within_quota,
                   CAST(sum(CASE WHEN seq >= mr AND seq < mr + cr THEN 1 ELSE 0 END) AS BIGINT)
                       AS admitted_via_credit,
                   CAST(sum(CASE WHEN seq >= mr + cr THEN 1 ELSE 0 END) AS BIGINT)
                       AS rejected,
                   CAST(any_value(cr) - sum(CASE WHEN seq >= mr AND seq < mr + cr THEN 1 ELSE 0 END) AS BIGINT)
                       AS credits_remaining,
                   CAST(min(CASE WHEN seq = mr + cr THEN event_id END) AS DOUBLE)
                       AS first_rejected_event_id
            FROM ordered GROUP BY user_id ORDER BY user_id
        """,
        "device_admission": f"""
            WITH plan AS (SELECT * FROM {_plan_values()}),
            uplan AS (
                SELECT c.c_custkey AS user_id, p.device_limit
                FROM customer c JOIN plan p ON p.mktsegment = c.c_mktsegment
            ),
            d AS (
                -- same anchored parse as device_info: non-minimal JSON
                -- is unparseable in BOTH engines; NULL keys count 0
                -- devices but keep the user
                SELECT user_id,
                       CASE WHEN regexp_matches(props, '^\\{{"k":\\s*(\\d+)\\}}$')
                            THEN CAST(json_extract_string(props, '$.k') AS BIGINT) % 8
                       END AS device_key
                FROM events
            )
            SELECT d.user_id,
                   CAST(count(DISTINCT d.device_key) AS BIGINT) AS n_devices,
                   CAST(u.device_limit AS BIGINT) AS device_limit,
                   count(DISTINCT d.device_key) <= u.device_limit AS within_limit
            FROM d JOIN uplan u ON u.user_id = d.user_id
            GROUP BY d.user_id, u.device_limit ORDER BY d.user_id
        """,
        "device_info": """
            SELECT event_id, event_type,
                   CASE WHEN k IS NULL THEN 'unknown'
                        WHEN k < 25 THEN 'desktop'
                        WHEN k < 50 THEN 'mobile'
                        WHEN k < 75 THEN 'tablet'
                        ELSE 'other' END AS device_type,
                   k,
                   k IS NOT NULL AS parse_ok,
                   CASE WHEN k IS NULL THEN props END AS raw_props
            FROM (
                SELECT event_id, event_type, props,
                       CASE WHEN regexp_matches(props, '^\\{"k":\\s*(\\d+)\\}$')
                            THEN CAST(json_extract_string(props, '$.k') AS BIGINT)
                       END AS k
                FROM events
            ) ORDER BY event_id
        """,
        "latest_order_per_customer": """
            SELECT o_custkey, o_orderkey, o_orderdate FROM (
                SELECT o_custkey, o_orderkey, o_orderdate,
                       row_number() OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_orderdate DESC, o_orderkey DESC
                       ) AS rn
                FROM orders
            ) WHERE rn = 1 ORDER BY o_custkey
        """,
        "filter_regex_count": """
            SELECT lang, count(*) AS n_docs
            FROM documents
            WHERE regexp_matches(text, '(spark|vector)')
            GROUP BY lang ORDER BY lang
        """,
        "dedup_exact": """
            SELECT min(doc_id) AS doc_id, text
            FROM documents GROUP BY text ORDER BY doc_id
        """,
        "customer_nation_region": """
            SELECT r.r_name, n.n_name,
                   count(*) AS n_customers,
                   round(sum(c.c_acctbal), 4) AS total_acctbal
            FROM customer c
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY r.r_name, n.n_name ORDER BY r.r_name, n.n_name
        """,
        "period_usage": """
            SELECT user_id,
                   CASE WHEN extract(day FROM ts) >= 15
                        THEN date_trunc('month', ts) + INTERVAL 14 DAY
                        ELSE date_trunc('month', ts - INTERVAL 1 MONTH) + INTERVAL 14 DAY
                   END AS period_start,
                   count(*) AS requests_count,
                   round(sum(value), 4) AS total_value
            FROM events GROUP BY user_id, period_start
            ORDER BY user_id, period_start
        """,
        "events_in_range": """
            SELECT user_id, count(*) AS requests_count, round(sum(value), 4) AS total_value
            FROM events
            WHERE ts >= TIMESTAMP '2024-01-10' AND ts < TIMESTAMP '2024-02-10'
            GROUP BY user_id ORDER BY user_id
        """,
        "events_windows": """
            WITH x AS (
                SELECT 'hourly' AS scope, event_type,
                       date_trunc('hour', ts) AS window_start, value FROM events
                UNION ALL
                SELECT 'sliding', event_type,
                       date_trunc('hour', ts), value FROM events
                UNION ALL
                SELECT 'sliding', event_type,
                       date_trunc('hour', ts) - INTERVAL 1 HOUR, value FROM events
            )
            SELECT scope, event_type, window_start,
                   count(*) AS n_events, round(sum(value), 4) AS total_value
            FROM x GROUP BY scope, event_type, window_start
            ORDER BY scope, event_type, window_start
        """,
        # concat-then-chunk packing: global_start is an exclusive prefix
        # sum of \\S+ token counts in doc_id order; capacity 512 mirrors
        # the Ray default. Empty docs span 0 sequences
        "pack_sequences": r"""
            WITH t AS (
                SELECT doc_id,
                       len(regexp_extract_all(coalesce(text, ''), '\S+')) AS n_tokens
                FROM documents
            ), c AS (
                SELECT doc_id, n_tokens,
                       coalesce(sum(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS global_start
                FROM t
            )
            SELECT doc_id,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(global_start AS BIGINT) AS global_start,
                   CAST(global_start // 512 AS BIGINT) AS seq_id,
                   CAST(global_start % 512 AS BIGINT) AS seq_offset,
                   CAST(CASE WHEN n_tokens = 0 THEN 0
                        ELSE (global_start + n_tokens - 1) // 512
                             - global_start // 512 + 1 END AS BIGINT) AS n_seqs
            FROM c ORDER BY doc_id
        """,
        "asof_latest_order": """
            SELECT e.event_id, e.user_id, o.o_orderkey, o.o_orderdate
            FROM events e ASOF JOIN (
                SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
                FROM orders GROUP BY o_custkey, o_orderdate
            ) o ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
            ORDER BY e.event_id
        """,
        "session_counts": """
            WITH gaps AS (
                SELECT user_id,
                       ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS gap
                FROM events
            )
            SELECT user_id,
                   count(*) FILTER (
                       WHERE gap IS NULL OR gap > INTERVAL 30 MINUTE
                   ) AS n_sessions
            FROM gaps GROUP BY user_id ORDER BY user_id
        """,
        "running_user_totals": """
            SELECT user_id, ts, event_id, running_value FROM (
                SELECT user_id, ts, event_id,
                       round(sum(value) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ), 4) AS running_value,
                       row_number() OVER (
                           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
                       ) AS rn
                FROM events
            ) WHERE rn = 1 ORDER BY user_id
        """,
        # hybrid oracle: sketch quantile columns from the golden
        # fixture, the exact median column (consolidated from the
        # former value_median query) recomputed in SQL
        "approx_quantiles": """
            SELECT g.event_type, g.q25, g.q50, g.q75, g.q95, m.median_value
            FROM (
                SELECT * EXCLUDE (sf_tag)
                FROM read_parquet('/root/repo/fixtures/golden/approx_quantiles.parquet')
                WHERE sf_tag = (SELECT count(*) FROM events)
            ) g
            JOIN (
                SELECT event_type, round(median(value), 4) AS median_value
                FROM events GROUP BY event_type
            ) m USING (event_type)
            ORDER BY g.event_type
        """,
        "parts_by_brand": """
            SELECT p_brand, count(*) AS n_parts,
                   round(avg(p_retailprice), 4) AS avg_price,
                   max(p_size) AS max_size
            FROM part GROUP BY p_brand ORDER BY p_brand
        """,
        "supplier_by_nation": """
            SELECT n.n_name, count(*) AS n_suppliers,
                   round(sum(s.s_acctbal), 4) AS total_acctbal
            FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey
            GROUP BY n.n_name ORDER BY n.n_name
        """,
        "clean_corpus": """
            -- dedup is GLOBAL by text (winner = min doc_id, whose lang
            -- is kept) to match exact_dedup; token count uses \\S+ runs
            -- to match functions.text.token_count exactly
            SELECT lang, count(*) AS n_docs FROM (
                SELECT arg_min(lang, doc_id) AS lang
                FROM documents
                WHERE len(regexp_extract_all(text, '\\S+')) >= 40
                  AND length(text) >= 200
                GROUP BY text
            ) GROUP BY lang ORDER BY lang
        """,
        "props_extract": """
            SELECT event_type, count(*) AS n_events,
                   CAST(sum(CAST(json_extract(props, '$.k') AS INTEGER)) AS BIGINT) AS total_k,
                   round(avg(CAST(json_extract(props, '$.k') AS INTEGER)), 4) AS avg_k
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "image_metadata": """
            SELECT doc_id AS media_id, 'png' AS format,
                   (strlen(text) + 8) * 7 % 1024 + 16 AS width,
                   (strlen(text) + 8) * 13 % 1024 + 16 AS height,
                   strlen(text) + 8 AS n_bytes,
                   'ok' AS status
            FROM documents ORDER BY media_id
        """,
        # CCNet unigram-LM perplexity, exact SQL: same tokenizer
        # (lowercase [a-z]+ runs, RE2 both sides), same top-24 vocab
        # (count desc, token asc), same count-1 OOV floor; per-doc
        # float sums differ only in association order (≤1e-12 rel),
        # absorbed by the symmetric round(4); bucket thresholds carry
        # a 5e-5 offset so rounded values can never tie them
        "perplexity_buckets": """
            WITH toks AS (
                SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
                FROM documents
            ),
            cnt AS (SELECT tok, count(*)::BIGINT AS n FROM toks GROUP BY tok),
            tot AS (SELECT sum(n)::DOUBLE AS total FROM cnt),
            vocab AS (SELECT tok, n FROM cnt ORDER BY n DESC, tok LIMIT 24),
            scored AS (
                SELECT t.doc_id, count(*)::BIGINT AS n_tokens,
                       sum(CASE WHEN v.n IS NULL THEN 1 ELSE 0 END)::BIGINT AS n_oov,
                       sum(ln(coalesce(v.n, 1) / tot.total)) AS lp
                FROM toks t LEFT JOIN vocab v USING (tok) CROSS JOIN tot
                GROUP BY t.doc_id
            ),
            final AS (
                SELECT d.doc_id,
                       coalesce(s.n_tokens, 0) AS n_tokens,
                       coalesce(s.n_oov, 0) AS n_oov,
                       round(CASE WHEN s.n_tokens IS NULL THEN 1.0
                                  ELSE exp(-s.lp / s.n_tokens) END, 4) AS perplexity
                FROM documents d LEFT JOIN scored s USING (doc_id)
            )
            SELECT doc_id, n_tokens, n_oov, perplexity,
                   CASE WHEN perplexity < 90.00005 THEN 'head'
                        WHEN perplexity < 130.00005 THEN 'middle'
                        ELSE 'tail' END AS ppl_bucket
            FROM final ORDER BY doc_id
        """,
        "token_stats": """
            -- \\S+ runs == the pipeline's token_count (string_split on
            -- a single space would diverge on any doubled/leading
            -- whitespace); the BPE proxy column is the GPT-2-style
            -- pre-tokenizer shape (letter runs, single digits,
            -- punctuation marks)
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS total_tokens,
                   round(avg(len(regexp_extract_all(text, '\\S+'))), 4) AS avg_tokens,
                   CAST(sum(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]|[^A-Za-z0-9[:space:]]'))) AS BIGINT) AS total_bpe_tokens
            FROM documents GROUP BY lang ORDER BY lang
        """,
        # hybrid oracle: md5 columns exact SQL, the rolling winnowing
        # fingerprint (consolidated from the former rolling_fingerprints
        # query) joined from its golden fixture
        "fingerprints": """
            SELECT d.doc_id, md5(d.text) AS fingerprint,
                   md5(nfc_normalize(d.text)) AS norm_fingerprint,
                   g.rolling_fp
            FROM documents d
            JOIN (
                SELECT doc_id, rolling_fp
                FROM read_parquet('/root/repo/fixtures/golden/rolling_fingerprints.parquet')
                WHERE sf_tag = (SELECT count(*) FROM events)
            ) g USING (doc_id)
            ORDER BY d.doc_id
        """,
        "ann_topk": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings ORDER BY vec_id LIMIT 5
            ),
            scored AS (
                SELECT q.query_id, e.vec_id,
                       row_number() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                                    e.vec_id
                       ) AS rn
                FROM q CROSS JOIN embeddings e
            )
            SELECT query_id, vec_id FROM scored WHERE rn <= 10
            ORDER BY query_id, vec_id
        """,
        # exact SQL over chr(31)-joined token STRINGS where the Ray
        # side probes 64-bit gram HASHES — equal up to 2^-64 collisions
        # (same documented trade as quality_scores' repetition columns).
        # Benchmark side = doc_id % 97 == 0 (a deterministic eval-set
        # stand-in; those docs are excluded from the output)
        "decontaminate": r"""
            WITH toks AS (
                SELECT doc_id,
                    list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                                x -> x <> '') AS t
                FROM documents
            ), g AS (
                SELECT doc_id,
                    list_distinct(list_transform(range(1, len(t) - 3),
                        i -> t[i] || chr(31) || t[i+1] || chr(31) || t[i+2]
                             || chr(31) || t[i+3] || chr(31) || t[i+4])) AS grams
                FROM toks WHERE len(t) >= 5
            ), bench AS (
                SELECT DISTINCT unnest(grams) AS gr FROM g WHERE doc_id % 97 = 0
            ), shared AS (
                SELECT doc_id, count(*) AS n_shared FROM (
                    SELECT doc_id, unnest(grams) AS gr
                    FROM g WHERE doc_id % 97 <> 0
                ) JOIN bench USING (gr) GROUP BY doc_id
            )
            SELECT d.doc_id,
                CAST(coalesce(len(g.grams), 0) AS BIGINT) AS n_grams,
                CAST(coalesce(s.n_shared, 0) AS BIGINT) AS n_shared,
                round(CASE WHEN coalesce(len(g.grams), 0) > 0
                    THEN CAST(coalesce(s.n_shared, 0) AS DOUBLE) / len(g.grams)
                    ELSE 0.0 END, 4) AS contam_frac,
                coalesce(s.n_shared, 0) > 0 AS contaminated
            FROM documents d
            LEFT JOIN g USING (doc_id)
            LEFT JOIN shared s USING (doc_id)
            WHERE d.doc_id % 97 <> 0
            ORDER BY d.doc_id
        """,
        # chunk k covers tokens [k*stride, k*stride+window);
        # window=64, stride=48 mirrors the Ray defaults
        "chunk_windows": r"""
            WITH toks AS (
                SELECT doc_id,
                    list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                                x -> x <> '') AS t
                FROM documents
            ), n AS (
                SELECT doc_id, t, len(t) AS L,
                    CASE WHEN len(t) <= 64 THEN 1
                         ELSE 1 + CAST(ceil((len(t) - 64) / 48.0) AS BIGINT)
                    END AS n_chunks
                FROM toks WHERE len(t) > 0
            ), e AS (
                SELECT doc_id, t, L, unnest(range(0, n_chunks)) AS k FROM n
            )
            SELECT doc_id,
                CAST(k AS BIGINT) AS chunk_id,
                CAST(k * 48 AS BIGINT) AS chunk_start,
                CAST(least(L - k * 48, 64) AS BIGINT) AS n_tokens,
                array_to_string(
                    list_slice(t, k * 48 + 1, least(k * 48 + 64, L)), ' '
                ) AS chunk_text
            FROM e ORDER BY doc_id, chunk_id
        """,
        # hybrid oracle: (host, est_count) pinned by the golden fixture,
        # the exact n_pages column (consolidated from the former
        # host_doc_counts query) recomputed in SQL and joined on host
        "host_heavy_hitters": """
            SELECT g.host, g.est_count, CAST(c.n_pages AS BIGINT) AS n_pages
            FROM (
                SELECT * EXCLUDE (sf_tag)
                FROM read_parquet('/root/repo/fixtures/golden/host_heavy_hitters.parquet')
                WHERE sf_tag = (SELECT count(*) FROM events)
            ) g
            JOIN (
                SELECT concat('host', CAST(doc_id % 20 AS VARCHAR), '.example') AS host,
                       count(*) AS n_pages
                FROM documents GROUP BY host
            ) c USING (host)
            ORDER BY g.est_count DESC, g.host
        """,
        "cap_per_host": """
            SELECT doc_id,
                   concat('host', CAST(doc_id % 20 AS VARCHAR), '.example') AS host
            FROM (
                SELECT doc_id,
                       row_number() OVER (
                           PARTITION BY doc_id % 20 ORDER BY doc_id
                       ) AS rn
                FROM documents
            )
            WHERE rn <= 100 ORDER BY doc_id
        """,
        # weighted multi-epoch mixing: floor(w) full copies + one
        # hash-sampled fractional copy per doc; thresholds inlined from
        # the pipeline's MIX_WEIGHTS (same md5-prefix trick as
        # stratified_sample, keyed on 'doc_id:copy_idx')
        "corpus_mix": f"""
            WITH p AS (
                SELECT doc_id, lang,
                    CASE lang WHEN 'en' THEN 2 WHEN 'de' THEN 1
                              WHEN 'fr' THEN 0 WHEN 'es' THEN 1
                              ELSE 0 END AS full_copies,
                    CASE lang
                        WHEN 'en' THEN '{format(int(0.25 * 16**8), "08x")}'
                        WHEN 'de' THEN '{format(0, "08x")}'
                        WHEN 'fr' THEN '{format(int(0.5 * 16**8), "08x")}'
                        WHEN 'es' THEN '{format(int(0.5 * 16**8), "08x")}'
                        ELSE '{format(int(0.25 * 16**8), "08x")}'
                    END AS frac_threshold
                FROM documents
            ), c AS (
                SELECT doc_id, lang, full_copies, frac_threshold,
                       unnest(range(full_copies + 1)) AS copy_idx
                FROM p
            )
            SELECT doc_id, lang, CAST(copy_idx AS BIGINT) AS copy_idx
            FROM c
            WHERE copy_idx < full_copies
               OR substr(md5(CAST(doc_id AS VARCHAR) || ':'
                             || CAST(copy_idx AS VARCHAR)), 1, 8) < frac_threshold
            ORDER BY doc_id, copy_idx
        """,
        # deterministic hash sampling: fixed-width lowercase hex compares
        # lexicographically == numerically, so the md5-prefix threshold
        # is exactly expressible on both sides (thresholds inlined from
        # the pipeline's STRATA_RATES)
        "stratified_sample": f"""
            SELECT doc_id, lang, substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS sample_key
            FROM documents
            WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) <
                  CASE lang
                      WHEN 'en' THEN '{format(int(0.5 * 16**8), "08x")}'
                      WHEN 'de' THEN '{format(int(0.25 * 16**8), "08x")}'
                      WHEN 'fr' THEN '{format(int(0.25 * 16**8), "08x")}'
                      WHEN 'es' THEN '{format(int(0.25 * 16**8), "08x")}'
                      ELSE '{format(int(0.1 * 16**8), "08x")}'
                  END
            ORDER BY doc_id
        """,
        # token definition = \S+ runs (the engine-wide token_count);
        # every float column is round(4) on BOTH sides. The repetition
        # CTEs replicate repetition_features: dup_{n}gram_frac =
        # 1 - distinct/total n-gram occurrences (the Ray side combines
        # token HASHES where this joins token STRINGS with a \x1f
        # separator — equal up to 2^-64 hash collisions), top bigram
        # share via a per-doc gram GROUP BY. The lid subquery is the
        # consolidated language_id heuristic: RE2 semantics match
        # pyarrow.compute exactly (both are RE2); the CASE ladder
        # replicates numpy argmax first-max-wins in the pipeline's lang
        # order (en, de, fr, es); zh override first, then und — same
        # precedence as functions.text.lang_id
        "quality_scores": r"""
            WITH toks AS (
                SELECT doc_id,
                    list_filter(regexp_split_to_array(coalesce(text, ''), '\s+'),
                                x -> x <> '') AS t
                FROM documents
            ), reps AS (
                SELECT doc_id, len(t) AS rnt,
                    CASE WHEN len(t) >= 2 THEN 1.0
                        - CAST(len(list_distinct(list_transform(range(1, len(t)),
                              i -> t[i] || chr(31) || t[i+1]))) AS DOUBLE) / (len(t) - 1)
                        ELSE 0.0 END AS d2,
                    CASE WHEN len(t) >= 3 THEN 1.0
                        - CAST(len(list_distinct(list_transform(range(1, len(t) - 1),
                              i -> t[i] || chr(31) || t[i+1] || chr(31) || t[i+2]))) AS DOUBLE) / (len(t) - 2)
                        ELSE 0.0 END AS d3,
                    CASE WHEN len(t) >= 4 THEN 1.0
                        - CAST(len(list_distinct(list_transform(range(1, len(t) - 2),
                              i -> t[i] || chr(31) || t[i+1] || chr(31) || t[i+2] || chr(31) || t[i+3]))) AS DOUBLE) / (len(t) - 3)
                        ELSE 0.0 END AS d4
                FROM toks
            ), topb AS (
                SELECT doc_id, max(c) AS maxc FROM (
                    SELECT doc_id, gram, count(*) AS c FROM (
                        SELECT doc_id,
                            unnest(list_transform(range(1, len(t)),
                                i -> t[i] || chr(31) || t[i+1])) AS gram
                        FROM toks WHERE len(t) >= 2
                    ) GROUP BY doc_id, gram
                ) GROUP BY doc_id
            ), f AS (
                SELECT doc_id,
                    CAST(length(text) AS DOUBLE) AS nc,
                    CAST(len(regexp_extract_all(text, '\S+')) AS DOUBLE) AS nt,
                    CAST(len(regexp_extract_all(text, '\s')) AS DOUBLE) AS ns,
                    CAST(len(regexp_extract_all(lower(text), '\b(the|and|of|to|in|a|is|that|for|with)\b')) AS DOUBLE) AS stop,
                    CAST(len(regexp_extract_all(text, '[^\w\s]')) AS DOUBLE) AS punct,
                    CAST(len(regexp_extract_all(text, '[A-Z]')) AS DOUBLE) AS upper
                FROM documents
            ), g AS (
                SELECT doc_id, nc, nt,
                    (nc - ns) / greatest(nt, 1.0) AS mt,
                    stop / greatest(nt, 1.0) AS sr,
                    punct / greatest(nc, 1.0) AS pr,
                    upper / greatest(nc, 1.0) AS ur
                FROM f
            )
            SELECT doc_id,
                CAST(nc AS BIGINT) AS n_chars,
                CAST(nt AS BIGINT) AS n_tokens,
                round(mt, 4) AS mean_token_len,
                round(sr, 4) AS stop_ratio,
                round(pr, 4) AS punct_ratio,
                round(ur, 4) AS upper_ratio,
                round(
                    least(greatest(nc / 500.0, 0), 1) * 0.25
                    + CASE WHEN mt >= 3 AND mt <= 10 THEN 0.25 ELSE 0.0 END
                    + least(greatest(sr / 0.2, 0), 1) * 0.25
                    + (1.0 - least(greatest(pr / 0.3, 0), 1)) * 0.15
                    + (1.0 - least(greatest(ur / 0.3, 0), 1)) * 0.10
                , 4) AS quality_score,
                round(r.d2, 4) AS dup_2gram_frac,
                round(r.d3, 4) AS dup_3gram_frac,
                round(r.d4, 4) AS dup_4gram_frac,
                round(CASE WHEN r.rnt >= 2
                    THEN CAST(coalesce(tb.maxc, 0) AS DOUBLE) / (r.rnt - 1)
                    ELSE 0.0 END, 4) AS top_bigram_frac,
                lid.lang, lid.pred_lang
            FROM g
            JOIN reps r USING (doc_id)
            LEFT JOIN topb tb USING (doc_id)
            JOIN (
                SELECT doc_id, lang,
                    CASE
                        WHEN c_cjk > 2 * greatest(c_en, c_de, c_fr, c_es) THEN 'zh'
                        WHEN greatest(c_en, c_de, c_fr, c_es) = 0 THEN 'und'
                        WHEN c_en >= c_de AND c_en >= c_fr AND c_en >= c_es THEN 'en'
                        WHEN c_de >= c_fr AND c_de >= c_es THEN 'de'
                        WHEN c_fr >= c_es THEN 'fr'
                        ELSE 'es'
                    END AS pred_lang
                FROM (
                    SELECT doc_id, lang,
                        len(regexp_extract_all(lower(text), '\b(the|and|of|to|in|is|that|for|with|was)\b')) AS c_en,
                        len(regexp_extract_all(lower(text), '\b(der|die|das|und|ist|nicht|mit|ein|eine|zu|für)\b|[äöüß]')) AS c_de,
                        len(regexp_extract_all(lower(text), '\b(le|la|les|et|est|une?|des|du|dans|pour|que)\b|[éèêàçù]')) AS c_fr,
                        len(regexp_extract_all(lower(text), '\b(el|la|los|las|y|es|una?|del|en|que|por|para)\b|[ñ¿¡]|ción\b')) AS c_es,
                        len(regexp_extract_all(text, '[一-鿿]')) AS c_cjk
                    FROM documents
                )
            ) lid USING (doc_id)
            ORDER BY doc_id
        """,
        # sequential scrub, same order as functions.text._PII_PATTERNS:
        # each type is counted+replaced on the text as scrubbed so far
        # (both engines are RE2, so match semantics are byte-identical).
        # The src CTE plants the same doc_id-derived contact line as the
        # Ray query — the corpus itself has no PII-shaped strings
        "pii_scrub": r"""
            WITH src AS (
                SELECT doc_id,
                    'Contact: user' || CAST(doc_id AS VARCHAR)
                    || '@mail.example Phone: (555) 010-'
                    || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                    || ' IP: 10.0.' || CAST(doc_id % 256 AS VARCHAR)
                    || '.' || CAST((doc_id * 7) % 256 AS VARCHAR)
                    || ' SSN: 123-45-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                    || ' ' || coalesce(text, '') AS t0
                FROM documents
            ), s1 AS (
                SELECT doc_id,
                    len(regexp_extract_all(t0,
                        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_email,
                    regexp_replace(t0,
                        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                        '<EMAIL>', 'g') AS t
                FROM src
            ), s2 AS (
                SELECT doc_id, n_email,
                    len(regexp_extract_all(t, '\b\d{3}-\d{2}-\d{4}\b')) AS n_ssn_like,
                    regexp_replace(t, '\b\d{3}-\d{2}-\d{4}\b', '<SSN_LIKE>', 'g') AS t
                FROM s1
            ), s3 AS (
                SELECT doc_id, n_email, n_ssn_like,
                    len(regexp_extract_all(t, '\b(?:\d{1,3}\.){3}\d{1,3}\b')) AS n_ipv4,
                    regexp_replace(t, '\b(?:\d{1,3}\.){3}\d{1,3}\b', '<IPV4>', 'g') AS t
                FROM s2
            )
            SELECT doc_id,
                regexp_replace(t, '\+?\d[\d\s().-]{7,}\d', '<PHONE>', 'g') AS text_scrubbed,
                CAST(n_email AS BIGINT) AS n_email,
                CAST(n_ssn_like AS BIGINT) AS n_ssn_like,
                CAST(n_ipv4 AS BIGINT) AS n_ipv4,
                CAST(len(regexp_extract_all(t, '\+?\d[\d\s().-]{7,}\d')) AS BIGINT) AS n_phone
            FROM s3 ORDER BY doc_id
        """,
        # the stub frame sampler slices 4 equal strides capped at 4 KiB
        # (payload = PNG magic (8 bytes) + utf-8 text)
        "frame_samples": """
            SELECT doc_id AS media_id,
                   CAST(fi AS INTEGER) AS frame_index,
                   least((strlen(text) + 8) // 4, 4096) AS frame_bytes
            FROM documents CROSS JOIN (SELECT unnest(range(4)) AS fi)
            ORDER BY media_id, frame_index
        """,
        # exact cross-join cosine oracle over the SAME deterministic
        # planted-copy augmentation the Ray query derives inline (one
        # exact copy per vec_id % 50 == 0, offset +1e6). The Ray side is
        # random-hyperplane LSH with within-bucket verify — recall < 1
        # in general, but identical vectors share every bucket, so on
        # this data (planted cosine 1.0, max natural off-diagonal ~0.51
        # vs threshold 0.99) the LSH result is provably the exact set —
        # the gate checks recall on real duplicate pairs, not the empty
        # set.
        "embedding_near_dups": """
            WITH aug AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL
                SELECT vec_id + 1000000, embedding FROM embeddings
                WHERE vec_id % 50 = 0
            )
            SELECT a.vec_id AS id, min(b.vec_id) AS keep_id
            FROM aug a JOIN aug b ON b.vec_id < a.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.99
            GROUP BY a.vec_id ORDER BY id
        """,
        # minhash/simhash/ngram/rolling/IVF/HLL/media_features:
        # sketch- or sample-based (not SQL-expressible) → golden-fixture
        # oracles below pin cross-run determinism; semantic correctness
        # (planted dups found, IVF recall, HLL error) is pinned in pytest.
        **_golden_oracles(),
    }


_GOLDEN_QUERIES = (
    "minhash_near_dups",
    "simhash_near_dups",
    "semantic_dedup",
    "ngram_jaccard",
    "ann_topk_ivf",
    "approx_distinct",
    "media_features",
)

_GOLDEN_ORDER = {
    "minhash_near_dups": "id, keep_id",
    "simhash_near_dups": "id, keep_id",
    "semantic_dedup": "id, keep_id",
    "ngram_jaccard": "id_a, id_b",
    "ann_topk_ivf": "query_id, score DESC, vec_id",
    "approx_distinct": "table_col",
    "media_features": "media_id, dim_index",
}


def _golden_oracles() -> dict[str, str]:
    """Golden-fixture oracles: frozen expected outputs committed under
    fixtures/golden/ (generated by tools/make_golden.py at each sf),
    keyed to the scale factor by the events row count — a tag that
    differs across the driver's sf dirs where the documents row count
    does not. The SELECT drops the tag column and re-imposes the query
    ordering."""
    import os

    out = {}
    for name in _GOLDEN_QUERIES:
        path = f"/root/repo/fixtures/golden/{name}.parquet"
        if not os.path.exists(path):
            continue  # fixture not generated: fall back to rows-only
        out[name] = f"""
            SELECT * EXCLUDE (sf_tag)
            FROM read_parquet('{path}')
            WHERE sf_tag = (SELECT count(*) FROM events)
            ORDER BY {_GOLDEN_ORDER[name]}
        """
    return out
