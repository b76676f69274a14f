"""Stage registry / job-spec assembly / error-capture middleware."""

from __future__ import annotations

import pytest


def test_build_pipeline_from_spec(ray_session):
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline

    ds = rd.from_items(
        [{"text": "the quick brown fox and the lazy dog sat in the house"}] * 10
    )
    out = build_pipeline(
        ds,
        [
            {"stage": "content_hash"},
            {"stage": "quality"},
            {"stage": "lang_id"},
        ],
    ).to_pandas()
    assert "content_hash" in out.columns
    assert "quality_score" in out.columns
    assert (out["pred_lang"] == "en").all()


def test_unknown_stage_fails_at_submit(ray_session):
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline

    with pytest.raises(KeyError, match="unknown stage"):
        build_pipeline(rd.from_items([{"x": 1}]), [{"stage": "nope"}])


def test_json_spec_accepted(ray_session):
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline

    out = build_pipeline(
        rd.from_items([{"text": "hello world"}]), '[{"stage": "content_hash"}]'
    ).to_pandas()
    assert "content_hash" in out.columns


def test_error_capture_middleware(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from textextract_ray.pipelines.registry import with_error_capture

    def boom(batch: pa.Table) -> pa.Table:
        raise ValueError("kaboom")

    ds = rd.from_items([{"x": 1}, {"x": 2}]).map_batches(
        with_error_capture(boom), batch_format="pyarrow"
    )
    df = ds.to_pandas()
    assert len(df) == 2  # rows passed through, not lost
    assert df["_stage_error"].str.contains("kaboom").all()
    assert (df["_stage_ms"] >= 0).all()


def test_extract_stage_via_registry(ray_session):
    import ray.data as rd

    from textextract_ray.datagen import page_row
    from textextract_ray.pipelines.registry import build_pipeline
    from textextract_ray.schemas import PAGES_SCHEMA
    import pyarrow as pa

    rows = [page_row(i, 1 << 16) for i in range(12)]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA))
    out = build_pipeline(
        ds, [{"stage": "annotate"}, {"stage": "extract", "options": {"concurrency": 2}}]
    ).to_pandas()
    assert len(out) == 12
    assert "extracted_text" in out.columns


def test_round4_registered_stages(ray_session):
    """JSON job specs can compose the round-4 stages: pii_scrub over
    text rows; decode_image/resize_image over media rows (real own-codec
    PNGs)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline
    from textextract_ray.png import png_decode, png_encode

    docs = rd.from_items(
        [
            {"doc_id": 0, "source": "s0",
             "text": "mail me at a.b@example.com today"},
            {"doc_id": 1, "source": "s1", "text": "clean text"},
        ]
    )
    out = build_pipeline(
        docs, [{"stage": "pii_scrub"}]
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert "<EMAIL>" in out["text_scrubbed"][0]
    assert out["n_email"].tolist() == [1, 0]

    rng = np.random.default_rng(1)
    im = rng.integers(0, 256, (40, 60, 3), dtype=np.uint8)
    media = rd.from_items(
        [{"media_id": 0, "media": png_encode(im), "media_type": "image"}]
    )
    meta = build_pipeline(media, [{"stage": "decode_image"}]).to_pandas()
    assert (meta["width"][0], meta["height"][0]) == (60, 40)
    resized = build_pipeline(
        media, [{"stage": "resize_image", "options": {"size": 16}}]
    ).to_pandas()
    assert png_decode(resized["media"][0]).shape == (16, 16, 3)


def test_registry_round4b_stages(ray_session):
    """sentence_chunks applies as a dataset-level 1->N op; image_dhash
    builds an actor stage."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline

    docs = pd.DataFrame(
        {
            "doc_id": [0, 1],
            "text": ["l'été arrive. Hello there. More words follow.",
                     "plain. text. here."],
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(docs, preserve_index=False))
    spec = [{"stage": "sentence_chunks", "options": {"max_tokens": 4}}]
    out = build_pipeline(ds, spec).to_pandas().sort_values(
        ["doc_id", "chunk_idx"]
    )
    joined = " ".join(out.loc[out["doc_id"] == 0, "text"])
    assert joined == docs["text"][0]
    assert (out["n_tokens"] <= 4).all()

    from textextract_ray.png import png_encode
    import numpy as np

    media = rd.from_arrow(
        pa.table(
            {
                "media_id": pa.array([1], pa.int64()),
                "media": pa.array(
                    [png_encode(np.zeros((8, 8, 3), dtype=np.uint8))],
                    pa.binary(),
                ),
            }
        )
    )
    got = build_pipeline(media, [{"stage": "image_dhash"}]).to_pandas()
    assert list(got.columns) == ["media_id", "dhash", "status"]
    assert got["status"].iloc[0] == "ok"
