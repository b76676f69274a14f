"""Unicode normalization / mojibake repair (the ``normalize_text``
registry stage): DuckDB NFC parity on the
Arrow fast path, ftfy-shaped repair oracle on planted mojibake,
clean-text-never-corrupted guarantee, and layout invariance."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa


def _corpus() -> pd.DataFrame:
    decomposed = "café résumé"  # NFC-normalizes
    rows = [
        (0, "plain ascii text"),
        (1, decomposed),
        (2, "line one\r\nline two\rline three"),
        (3, "ctrl\x00chars\x07here\ttab\nkeeps"),
        # planted mojibake: UTF-8 bytes of 'été' read as latin-1
        (4, "l'Ã©tÃ© arrive"),
        # cp1252-flavored: curly quote U+2019 double-encoded
        (5, "donâ€™t stop"),
        # a literal Ã that is NOT mojibake (repair must not fire:
        # round-trip succeeds but marker count does not decrease)
        (6, "the letter Ã stands alone"),
        (7, None),
    ]
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def _run(df: pd.DataFrame, repartition=None, **kw) -> pd.DataFrame:
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline

    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    if repartition:
        ds = ds.repartition(repartition)
    out = build_pipeline(ds, [{"stage": "normalize_text", "options": kw}]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def test_normalize_nfc_parity_with_duckdb(ray_session):
    """Rows without mojibake follow the pure Arrow path; DuckDB can
    express that path exactly (newline fix, control strip, NFC)."""
    df = _corpus()
    clean = df[~df["doc_id"].isin([4, 5, 6])].reset_index(drop=True)
    got = _run(clean)
    want = duckdb.sql(
        r"""
        SELECT doc_id,
               nfc_normalize(
                 regexp_replace(
                   replace(replace(coalesce(text, ''), chr(13) || chr(10), chr(10)),
                           chr(13), chr(10)),
                   '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]', '', 'g')
               ) AS text
        FROM clean ORDER BY doc_id
        """
    ).df()
    pd.testing.assert_frame_equal(
        got[["doc_id", "text"]], want.astype({"doc_id": "int64"})
    )
    assert not got["mojibake_fixed"].any()


def test_normalize_repairs_planted_mojibake(ray_session):
    got = _run(_corpus())
    by_id = got.set_index("doc_id")
    assert by_id.loc[4, "text"] == "l'été arrive"
    assert by_id.loc[5, "text"] == "don’t stop"
    assert bool(by_id.loc[4, "mojibake_fixed"]) and bool(
        by_id.loc[5, "mojibake_fixed"]
    )
    # the literal Ã row is untouched (marker count would not decrease)
    assert by_id.loc[6, "text"] == "the letter Ã stands alone"
    assert not by_id.loc[6, "mojibake_fixed"]
    # null -> empty string
    assert by_id.loc[7, "text"] == ""


def test_normalize_fix_disabled_and_layout_invariant(ray_session):
    df = _corpus()
    off = _run(df, fix_mojibake=False)
    assert off.set_index("doc_id").loc[4, "text"] == "l'Ã©tÃ© arrive"
    assert not off["mojibake_fixed"].any()
    a = _run(df)
    b = _run(df.sample(frac=1.0, random_state=9).reset_index(drop=True),
             repartition=4)
    pd.testing.assert_frame_equal(a, b)
