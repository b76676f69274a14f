"""Perceptual-hash image near-dup detection: dHash sensitivity, the
``image_dhash`` stage + pigeonhole banding vs an all-pairs brute-force
oracle, layout
invariance, skip/strict semantics for undecodable payloads."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _png(px: np.ndarray) -> bytes:
    from textextract_ray.png import png_encode

    return png_encode(px)


def _media(seed: int = 7):
    """24 images: 8 originals, each with 0-2 planted near-dup variants
    (small brightness shifts — a few dHash bits), plus one junk payload."""
    rng = np.random.RandomState(seed)
    rows = []
    mid = 0
    for i in range(8):
        base = rng.randint(0, 256, (40 + i, 32 + 2 * i, 3), dtype=np.uint8)
        rows.append((mid, _png(base)))
        mid += 1
        for delta in (6, -9)[: i % 3]:
            shifted = np.clip(base.astype(np.int16) + delta, 0, 255).astype(np.uint8)
            rows.append((mid, _png(shifted)))
            mid += 1
    rows.append((mid, b"\xffnot-an-image"))
    return pd.DataFrame(rows, columns=["media_id", "media"])


def _brute(df: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """keep_id = smallest earlier media_id within the hamming radius."""
    from textextract_ray.functions.text import popcount64
    from textextract_ray.imageops import dhash64
    from textextract_ray.png import png_decode

    ids, hashes = [], []
    for _, r in df.sort_values("media_id").iterrows():
        try:
            hashes.append(dhash64(png_decode(r["media"])))
            ids.append(int(r["media_id"]))
        except Exception:
            continue
    h = np.array(hashes, dtype=np.uint64)
    out = []
    for j in range(1, len(ids)):
        ham = popcount64(h[:j] ^ h[j])
        hits = np.where(ham <= max_hamming)[0]
        if len(hits):
            out.append((ids[j], ids[int(hits[0])]))
    return pd.DataFrame(out, columns=["id", "keep_id"]).astype("int64")


def _run(df: pd.DataFrame, max_hamming: int, repartition=None) -> pd.DataFrame:
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline
    from textextract_ray.stages.dedup import hamming64_duplicate_assignments

    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    if repartition:
        ds = ds.repartition(repartition)
    hashed = build_pipeline(ds, [{"stage": "image_dhash"}]).filter(
        expr="status == 'ok'"
    )
    out = hamming64_duplicate_assignments(
        hashed, "dhash", "media_id", max_hamming
    ).to_pandas()
    return out.sort_values("id").reset_index(drop=True).astype("int64")


def test_dhash_locality():
    from textextract_ray.imageops import dhash64

    rng = np.random.RandomState(3)
    px = rng.randint(0, 256, (64, 48, 3), dtype=np.uint8)
    h = dhash64(px)
    shifted = np.clip(px.astype(np.int16) + 8, 0, 255).astype(np.uint8)
    assert bin(h ^ dhash64(shifted)).count("1") <= 3
    other = rng.randint(0, 256, (64, 48, 3), dtype=np.uint8)
    assert bin(h ^ dhash64(other)).count("1") > 10
    # deterministic and size-normalizing: a 2x upscale is pixel-identical
    # after the 8x9 thumbnail only approximately -- just pin determinism
    assert dhash64(px) == h


def test_image_near_dups_match_brute_force(ray_session):
    df = _media()
    got = _run(df, max_hamming=3)
    want = _brute(df, max_hamming=3)
    assert len(want) >= 3, "fixture must plant near-dups"
    pd.testing.assert_frame_equal(got, want)


def test_image_near_dups_layout_invariant(ray_session):
    df = _media()
    a = _run(df, max_hamming=3)
    b = _run(
        df.sample(frac=1.0, random_state=11).reset_index(drop=True),
        max_hamming=3,
        repartition=5,
    )
    pd.testing.assert_frame_equal(a, b)


def test_image_near_dups_radius_zero(ray_session):
    """Radius 0 pairs only byte-different images whose thumbnails agree
    exactly -- planted shifts of 1 gray level survive the luma round."""
    df = _media()
    got = _run(df, max_hamming=0)
    want = _brute(df, max_hamming=0)
    pd.testing.assert_frame_equal(got, want)


def test_image_dhash_skip_and_strict(ray_session):
    import ray.data as rd

    from textextract_ray.stages.multimodal import ImageDHash

    df = _media()
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    out = ImageDHash()(tbl)
    sts = out["status"].to_pylist()
    assert sts.count("skipped") == 1  # the junk payload
    assert all(s == "ok" for s in sts[:-1])
    with pytest.raises(NotImplementedError):
        ImageDHash(strict=True)(tbl)
