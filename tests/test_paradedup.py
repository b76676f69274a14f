"""Paragraph-level dedup (C4-style): exact DuckDB parity on a planted
corpus, layout invariance, and broadcast/co-group path equivalence.

The driver corpus has single-line texts with no repeated spans, so the
operator is pinned here with planted duplicates instead of a gate
slot (same approach as the embedding near-dup recall tests)."""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

LONG_A = "alpha " * 10  # 60 chars: dedup-eligible
LONG_B = "bravo " * 10
LONG_C = "charlie " * 8
SHORT = "== header =="  # 12 chars: always bypasses dedup


def _corpus() -> pd.DataFrame:
    rows = [
        # doc 3 holds the first occurrence of LONG_A (smallest doc_id)
        (3, "\n".join([LONG_A, SHORT, LONG_B])),
        (5, "\n".join([LONG_B, LONG_A, "unique five " * 5])),
        (7, "\n".join([SHORT, LONG_A, LONG_A])),  # in-doc repeat too
        (9, LONG_C),
        (11, "\n".join([LONG_A, LONG_B])),  # every span is a dup -> doc vanishes
        (13, "\n".join([SHORT, SHORT, ""])),  # only bypass spans
        (15, ""),  # empty text -> dropped (drop_empty)
        (17, "\n".join([LONG_C, "tail seventeen " * 4])),
    ]
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def _oracle(df: pd.DataFrame, min_chars: int = 30) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("docs", df)
    out = con.execute(
        f"""
        WITH paras AS (
            SELECT doc_id,
                   unnest(string_split(text, chr(10))) AS para,
                   generate_subscripts(string_split(text, chr(10)), 1) AS para_idx
            FROM docs
        ),
        ranked AS (
            SELECT doc_id, para_idx, para,
                   CASE WHEN length(para) >= {min_chars} THEN
                       row_number() OVER (PARTITION BY para ORDER BY doc_id, para_idx)
                   ELSE 1 END AS rn,
                   count(*) OVER (PARTITION BY doc_id) AS n_paras
            FROM paras
        ),
        kept AS (SELECT * FROM ranked WHERE rn = 1)
        SELECT doc_id,
               string_agg(para, chr(10) ORDER BY para_idx) AS text,
               CAST(any_value(n_paras) - count(*) AS INTEGER) AS n_dropped
        FROM kept GROUP BY doc_id
        HAVING length(string_agg(para, chr(10) ORDER BY para_idx)) > 0
        ORDER BY doc_id
        """
    ).df()
    con.close()
    return out.reset_index(drop=True)


def _run(ray_session, df: pd.DataFrame, **kw) -> pd.DataFrame:
    import ray.data as rd

    from textextract_ray.pipelines.textops import paragraph_dedup_ds

    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    out = paragraph_dedup_ds(ds, **kw).to_pandas()
    out["n_dropped"] = out["n_dropped"].astype("int32")
    return out.sort_values("doc_id").reset_index(drop=True)


def test_paragraph_dedup_matches_duckdb(ray_session):
    df = _corpus()
    got = _run(ray_session, df)
    want = _oracle(df)
    want["n_dropped"] = want["n_dropped"].astype("int32")
    pd.testing.assert_frame_equal(got, want)
    # the planted semantics actually bit: doc 11 vanished, doc 7 lost
    # both LONG_A copies, headers survived everywhere
    assert 11 not in set(got["doc_id"])
    assert got.set_index("doc_id").loc[7, "text"] == SHORT
    assert got.set_index("doc_id").loc[3, "text"] == "\n".join([LONG_A, SHORT, LONG_B])


def test_paragraph_dedup_layout_invariant(ray_session):
    import ray.data as rd

    from textextract_ray.pipelines.textops import paragraph_dedup_ds

    df = _corpus()
    base = _run(ray_session, df)
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(7)
    other = (
        paragraph_dedup_ds(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    other["n_dropped"] = other["n_dropped"].astype("int32")
    pd.testing.assert_frame_equal(base, other)


def test_paragraph_dedup_cogroup_fallback_matches_broadcast(ray_session):
    df = _corpus()
    fast = _run(ray_session, df)
    slow = _run(ray_session, df, broadcast_budget=0)  # force the co-group path
    pd.testing.assert_frame_equal(fast, slow)


def test_paragraph_dedup_noop_corpus(ray_session):
    """No duplicate spans -> byte-identical pass-through (the driver
    corpus shape), on both reassembly paths."""
    df = pd.DataFrame(
        {"doc_id": [1, 2], "text": ["unique one " * 6, "unique two " * 6]}
    )
    for kw in ({}, {"broadcast_budget": 0}):
        got = _run(None, df, **kw)
        assert got["text"].tolist() == df["text"].tolist()
        assert got["n_dropped"].tolist() == [0, 0]
