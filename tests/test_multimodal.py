"""Multimodal stage plumbing: schemas, batch flow, stub semantics."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="module")
def media_ds(ray_session):
    import ray.data as rd

    rows = [
        {"media_id": 0, "media": b"\x89PNG\r\n\x1a\n" + b"x" * 100, "media_type": "image"},
        {"media_id": 1, "media": b"\xff\xd8\xff" + b"y" * 50, "media_type": "image"},
        {"media_id": 2, "media": b"not an image at all", "media_type": "image"},
        {"media_id": 3, "media": b"GIF89a" + b"z" * 10, "media_type": "image"},
    ]
    return rd.from_items(rows)


def test_decode_images_stub(media_ds):
    from textextract_ray.stages.multimodal import decode_images

    df = decode_images(media_ds).to_pandas().sort_values("media_id")
    assert list(df["format"]) == ["png", "jpeg", "unknown", "gif"]
    assert list(df["status"]) == ["ok", "ok", "unsupported", "ok"]
    # deterministic fake dims from byte length
    n0 = 108
    assert df["width"].iloc[0] == (n0 * 7) % 1024 + 16
    assert df["n_bytes"].iloc[0] == n0


def test_decode_strict_raises(ray_session, media_ds):
    import ray

    from textextract_ray.stages.multimodal import decode_images

    with pytest.raises(Exception, match="NotImplementedError|decode requires"):
        decode_images(media_ds, strict=True).to_pandas()


def test_features_deterministic(media_ds):
    from textextract_ray.stages.multimodal import extract_features

    a = extract_features(media_ds).to_pandas().sort_values("media_id")
    b = extract_features(media_ds.repartition(3)).to_pandas().sort_values("media_id")
    for va, vb in zip(a["embedding"], b["embedding"]):
        assert list(va) == list(vb)
        assert len(va) == 8


def test_frame_sample_flatmap(media_ds):
    from textextract_ray.stages.multimodal import sample_frames

    df = sample_frames(media_ds, n_frames=4).to_pandas()
    assert len(df) == 16  # 4 media x 4 frames
    assert set(df["frame_index"]) == {0, 1, 2, 3}
    assert (df["frame"].str.len() > 0).all()


def test_png_codec_round_trip_all_filters():
    """Own stdlib PNG codec: encode→decode is identity for gray /
    gray+alpha / RGB / RGBA across ALL five row filters (each filter
    exercises a distinct reconstruction branch)."""
    import numpy as np

    from textextract_ray.png import png_decode, png_encode

    rng = np.random.RandomState(3)
    shapes = [(7, 5), (6, 4, 2), (5, 9, 3), (8, 3, 4)]
    for shape in shapes:
        px = rng.randint(0, 256, size=shape, dtype=np.uint8)
        for ft in range(5):
            data = png_encode(px, filter_type=ft)
            out = png_decode(data)
            np.testing.assert_array_equal(out, px, err_msg=str((shape, ft)))


def test_png_codec_rejects_malformed():
    import struct
    import zlib

    import numpy as np
    import pytest

    from textextract_ray.png import has_valid_ihdr, png_decode, png_encode

    good = png_encode(np.zeros((4, 4), dtype=np.uint8))
    assert has_valid_ihdr(good)

    # corrupt one IDAT byte → CRC failure
    bad = bytearray(good)
    bad[40] ^= 0xFF
    with pytest.raises(ValueError):
        png_decode(bytes(bad))

    # 16-bit depth: patch IHDR + refresh its CRC → unsupported-subset error
    deep = bytearray(good)
    deep[24] = 16
    deep[29:33] = struct.pack(">I", zlib.crc32(bytes(deep[12:29])) & 0xFFFFFFFF)
    assert has_valid_ihdr(bytes(deep))
    with pytest.raises(ValueError, match="bit depth"):
        png_decode(bytes(deep))

    # magic-prefix-only synthetic payload (the driver corpus shape)
    assert not has_valid_ihdr(b"\x89PNG\r\n\x1a\n" + b"hello world")


def test_decode_image_real_png_vs_stub(ray_session):
    """DecodeImage routes structurally-valid PNGs through the REAL
    codec (true dimensions) while magic-only synthetic payloads keep
    the deterministic stub path — so the driver-gate oracle formula
    still holds for the synthetic corpus."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from textextract_ray.png import png_encode
    from textextract_ray.stages.multimodal import decode_images

    real = png_encode(np.zeros((12, 34, 3), dtype=np.uint8))
    fake = b"\x89PNG\r\n\x1a\n" + "some text payload".encode()
    ds = rd.from_arrow(
        pa.table(
            {
                "media_id": pa.array([1, 2], pa.int64()),
                "media": pa.array([real, fake], pa.binary()),
                "media_type": pa.array(["image", "image"], pa.string()),
            }
        )
    )
    out = decode_images(ds).to_pandas().set_index("media_id")
    assert (out.loc[1, "width"], out.loc[1, "height"]) == (34, 12)
    assert out.loc[1, "status"] == "ok"
    n = len(fake)
    assert (out.loc[2, "width"], out.loc[2, "height"]) == (
        n * 7 % 1024 + 16,
        n * 13 % 1024 + 16,
    )


def test_png_codec_bomb_and_subset_routing(ray_session):
    """Hardening: a high-ratio crafted IDAT cannot allocate past the
    IHDR-derived size (bounded inflate → ValueError, no OOM); corrupt
    zlib streams surface as ValueError per the documented contract;
    and a VALID palette PNG (outside the stdlib subset) routes to the
    stub with status ok — or NotImplementedError under strict — never
    to decode_error."""
    import struct
    import zlib

    import numpy as np
    import pytest

    from textextract_ray.png import (
        UnsupportedPngError,
        _chunk,
        _SIGNATURE,
        png_decode,
        png_encode,
    )
    from textextract_ray.stages.multimodal import DecodeImage

    # decompression bomb: IHDR says 4x4 gray, IDAT inflates to 50 MB
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 0)
    bomb = (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(b"\x00" * (50 << 20)))
        + _chunk(b"IEND", b"")
    )
    with pytest.raises(ValueError, match="does not match"):
        png_decode(bomb)

    # corrupt zlib stream with a VALID chunk CRC → ValueError, not zlib.error
    garbage = _SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", b"\x99" * 30) + _chunk(b"IEND", b"")
    with pytest.raises(ValueError, match="corrupt IDAT"):
        png_decode(garbage)

    # valid palette PNG (color type 3): UnsupportedPngError from the
    # codec; stub 'ok' from the stage; NotImplementedError in strict
    pal_ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
    plte = bytes(range(12))
    pal_rows = zlib.compress(b"\x00\x00\x01" + b"\x00\x02\x03")
    palette = (
        _SIGNATURE
        + _chunk(b"IHDR", pal_ihdr)
        + _chunk(b"PLTE", plte)
        + _chunk(b"IDAT", pal_rows)
        + _chunk(b"IEND", b"")
    )
    with pytest.raises(UnsupportedPngError):
        png_decode(palette)
    fmt, w, h, status = DecodeImage()._decode(palette)
    assert (fmt, status) == ("png", "ok")  # stub path, not decode_error
    with pytest.raises(NotImplementedError):
        DecodeImage(strict=True)._decode(palette)

    # round-trip still good after the bounded-inflate change
    px = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    np.testing.assert_array_equal(png_decode(png_encode(px)), px)


def test_decode_audio_real_wav_and_stub(ray_session):
    """DecodeAudio parses real RIFF/WAV via stdlib wave (true sample
    rate / channels / frame count / duration), stubs other formats
    deterministically, and surfaces malformed RIFF as a decode_error
    status row."""
    import io
    import wave

    import pyarrow as pa
    import ray.data as rd

    from textextract_ray.stages.multimodal import decode_audio

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(b"\x00\x01" * 2 * 8000)  # 8000 frames = 500 ms
    real = buf.getvalue()
    broken = b"RIFF" + b"\x00" * 4 + b"WAVEjunkjunk"
    other = b"\xff\xd8\xff not audio"

    ds = rd.from_arrow(
        pa.table(
            {
                "media_id": pa.array([1, 2, 3], pa.int64()),
                "media": pa.array([real, broken, other], pa.binary()),
                "media_type": pa.array(["audio"] * 3, pa.string()),
            }
        )
    )
    out = decode_audio(ds).to_pandas().set_index("media_id")
    assert out.loc[1, ["format", "sample_rate", "channels", "n_frames", "duration_ms"]].tolist() == [
        "wav", 16000, 2, 8000, 500
    ]
    assert out.loc[1, "status"] == "ok"
    assert out.loc[2, "status"].startswith("decode_error")
    assert out.loc[3, "status"] == "stubbed"

    two = decode_audio(rd.from_arrow(pa.table(
        {"media_id": pa.array([1], pa.int64()),
         "media": pa.array([other], pa.binary()),
         "media_type": pa.array(["audio"], pa.string())}
    ))).to_pandas()
    assert two["sample_rate"].iloc[0] == 8000 + len(other) % 40000  # deterministic stub


def _minimal_jpeg(w, h, marker=0xC0, pre=b"", fill=b""):
    """SOI [+pre segment] + SOF with the given code; enough structure
    for a header parse (no entropy data needed)."""
    sof_payload = bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big") + bytes(
        [3, 1, 0x22, 0, 2, 0x11, 1, 3, 0x11, 1]
    )
    seg = bytes([0xFF, marker]) + (len(sof_payload) + 2).to_bytes(2, "big") + sof_payload
    return b"\xff\xd8" + pre + fill + seg + b"\xff\xd9"


def _minimal_gif(w, h, gct=False, trailer=b"\x3b"):
    flags = 0x91 if gct else 0x11  # GCT flag + 4-color table when set
    head = (
        b"GIF89a"
        + w.to_bytes(2, "little")
        + h.to_bytes(2, "little")
        + bytes([flags, 0, 0])
    )
    if gct:
        head += b"\x01\x02\x03" * 4
    return head + trailer


def test_jpeg_gif_header_parsers():
    """imagemeta parses real SOF / logical-screen structures exactly
    and returns None for magic-prefix-only junk (so the stub path in
    the decode ladder stays reachable for synthetic payloads)."""
    from textextract_ray.imagemeta import gif_dims, jpeg_dims

    # baseline, progressive, APP0-prefixed, fill-byte-padded
    app0 = b"\xff\xe0\x00\x10JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    assert jpeg_dims(_minimal_jpeg(640, 480)) == (640, 480)
    assert jpeg_dims(_minimal_jpeg(31, 7, marker=0xC2)) == (31, 7)
    assert jpeg_dims(_minimal_jpeg(9, 5, pre=app0)) == (9, 5)
    assert jpeg_dims(_minimal_jpeg(9, 5, pre=app0, fill=b"\xff\xff")) == (9, 5)
    # junk, truncation, zero dims, DHT-not-SOF, EOI-before-SOF
    assert jpeg_dims(b"\xff\xd8\xff" + b"y" * 50) is None
    assert jpeg_dims(_minimal_jpeg(640, 480)[:8]) is None
    assert jpeg_dims(_minimal_jpeg(0, 480)) is None
    assert jpeg_dims(_minimal_jpeg(4, 4, marker=0xC4) ) is None
    assert jpeg_dims(b"\xff\xd8\xff\xd9") is None

    assert gif_dims(_minimal_gif(320, 200)) == (320, 200)
    assert gif_dims(_minimal_gif(320, 200, gct=True)) == (320, 200)
    assert gif_dims(_minimal_gif(1, 1, trailer=b"\x2c")) == (1, 1)
    assert gif_dims(b"GIF89a" + b"z" * 10) is None  # junk next-block byte
    assert gif_dims(_minimal_gif(0, 200)) is None
    assert gif_dims(_minimal_gif(3, 3)[:12]) is None


def test_decode_image_real_jpeg_gif_headers(ray_session):
    """The ladder returns REAL dims for structurally valid JPEG/GIF
    (even under strict), and keeps the deterministic stub for
    magic-prefix-only payloads."""
    import pyarrow as pa
    import ray.data as rd

    from textextract_ray.stages.multimodal import decode_images

    jpg = _minimal_jpeg(1920, 1080)
    gif = _minimal_gif(64, 32, gct=True)
    stub_jpg = b"\xff\xd8\xff" + b"y" * 50

    ds = rd.from_arrow(pa.table(
        {"media_id": pa.array([1, 2, 3], pa.int64()),
         "media": pa.array([jpg, gif, stub_jpg], pa.binary()),
         "media_type": pa.array(["image"] * 3, pa.string())}
    ))
    out = decode_images(ds).to_pandas().set_index("media_id")
    assert out.loc[1, ["format", "width", "height"]].tolist() == ["jpeg", 1920, 1080]
    assert out.loc[2, ["format", "width", "height"]].tolist() == ["gif", 64, 32]
    n = len(stub_jpg)
    assert out.loc[3, ["width", "height"]].tolist() == [(n * 7) % 1024 + 16, (n * 13) % 1024 + 16]

    strict = decode_images(ds.filter(lambda r: r["media_id"] <= 2), strict=True).to_pandas()
    assert sorted(strict["format"]) == ["gif", "jpeg"]  # header parse is a real decode


def test_webp_header_parser():
    from textextract_ray.imagemeta import webp_dims

    def riff(tag, body):
        chunk = tag + len(body).to_bytes(4, "little") + body
        return b"RIFF" + (len(chunk) + 4).to_bytes(4, "little") + b"WEBP" + chunk

    vp8x = riff(b"VP8X", bytes([0x08, 0, 0, 0]) + (639).to_bytes(3, "little") + (479).to_bytes(3, "little"))
    assert webp_dims(vp8x) == (640, 480)
    bits = (99 - 1) | ((77 - 1) << 14)
    vp8l = riff(b"VP8L", bytes([0x2F]) + bits.to_bytes(4, "little") + b"\x00")
    assert webp_dims(vp8l) == (99, 77)
    vp8 = riff(b"VP8 ", b"\x00\x00\x00\x9d\x01\x2a" + (320).to_bytes(2, "little") + (200).to_bytes(2, "little") + b"\x00\x00")
    assert webp_dims(vp8) == (320, 200)
    # junk RIFF, wav RIFF, bad VP8L signature byte, truncation
    assert webp_dims(b"RIFF" + b"\x00" * 26) is None
    assert webp_dims(b"RIFF\x10\x00\x00\x00WAVEfmt " + b"\x00" * 16) is None
    assert webp_dims(riff(b"VP8L", b"\x30\x00\x00\x00\x00\x00")) is None
    assert webp_dims(vp8x[:20]) is None


def test_enhance_kernels_pure():
    """Pixel-enhancement kernel semantics (imageops.py — the
    reference's OCR ladder, src/ocr.py:43-60, as vectorized numpy)."""
    import numpy as np

    from textextract_ray.imageops import (
        enhance_brightness,
        enhance_contrast,
        enhance_sharpness,
        preprocess_pixels,
        to_rgb,
    )

    # to_rgb handles every supported layout
    assert to_rgb(np.zeros((4, 5), np.uint8)).shape == (4, 5, 3)
    assert to_rgb(np.zeros((4, 5, 2), np.uint8)).shape == (4, 5, 3)
    assert to_rgb(np.zeros((4, 5, 4), np.uint8)).shape == (4, 5, 3)

    # a uniform image is a fixed point of contrast (mean == pixel) and
    # sharpness (smooth of constant == constant)
    flat = np.full((6, 6, 3), 120, np.uint8)
    assert (enhance_contrast(flat, 1.5) == flat).all()
    assert (enhance_sharpness(flat, 1.2) == flat).all()
    # brightness scales: 120 * 1.1 = 132
    assert (enhance_brightness(flat, 1.1) == 132).all()

    # contrast pushes values away from the mean by the factor
    px = np.zeros((1, 2, 3), np.uint8)
    px[0, 0] = 100
    px[0, 1] = 200  # luma mean = 150
    out = enhance_contrast(px, 1.5)
    assert (out[0, 0] == 75).all() and (out[0, 1] == 225).all()

    # sharpness: border pixels are untouched (PIL leaves the 1-px
    # border unfiltered); interior moves away from the local smooth
    g = np.zeros((5, 5, 3), np.uint8)
    g[2, 2] = 255
    sh = enhance_sharpness(g, 1.2)
    assert (sh[0, 0] == 0).all() and (sh[2, 2] == 255).all()
    # neighbors of the bright pixel get pushed BELOW the smooth (factor
    # > 1 moves away from smoothed → clipped at 0 since original is 0)
    assert (sh[1, 2] == 0).all()

    # full ladder is deterministic and stays uint8 RGB
    rng = np.random.RandomState(7)
    img = rng.randint(0, 256, (16, 12, 3)).astype(np.uint8)
    a, b = preprocess_pixels(img), preprocess_pixels(img)
    assert a.dtype == np.uint8 and a.shape == (16, 12, 3)
    assert (a == b).all()


def test_preprocess_image_stage_round_trip(ray_session):
    """decode → enhance → re-encode through the actor-pool stage: the
    output payload is a VALID PNG whose pixels equal the pure-function
    reference (preprocess_pixels) applied to the decoded input —
    including inputs written with every PNG row filter — and the
    result is byte-stable across block layouts."""
    import numpy as np
    import ray.data as rd

    from textextract_ray.imageops import preprocess_pixels
    from textextract_ray.pipelines.registry import build_pipeline
    from textextract_ray.png import png_decode, png_encode

    rng = np.random.RandomState(3)
    imgs = {
        10: (rng.randint(0, 256, (9, 7, 3)).astype(np.uint8), 0),
        11: (rng.randint(0, 256, (8, 8)).astype(np.uint8), 1),  # gray, Sub
        12: (rng.randint(0, 256, (6, 10, 4)).astype(np.uint8), 4),  # RGBA, Paeth
    }
    rows = [
        {"media_id": mid, "media": png_encode(px, filter_type=ft), "media_type": "image"}
        for mid, (px, ft) in imgs.items()
    ]
    rows.append({"media_id": 13, "media": b"\xff\xd8\xffnotpng", "media_type": "image"})

    out = (
        build_pipeline(rd.from_items(rows), [{"stage": "preprocess_image"}])
        .to_pandas()
        .sort_values("media_id")
        .set_index("media_id")
    )
    for mid, (px, _) in imgs.items():
        assert out.loc[mid, "status"] == "ok"
        got = png_decode(bytes(out.loc[mid, "media"]))
        want = preprocess_pixels(px)
        assert got.shape == want.shape
        assert (got == want).all()
        assert out.loc[mid, "width"] == px.shape[1]
        assert out.loc[mid, "height"] == px.shape[0]
    # non-PNG passes through unchanged as skipped
    assert out.loc[13, "status"] == "skipped"
    assert bytes(out.loc[13, "media"]) == b"\xff\xd8\xffnotpng"

    # layout-invariant bytes
    again = (
        build_pipeline(rd.from_items(rows).repartition(4), [{"stage": "preprocess_image"}])
        .to_pandas()
        .sort_values("media_id")
        .set_index("media_id")
    )
    for mid in imgs:
        assert bytes(again.loc[mid, "media"]) == bytes(out.loc[mid, "media"])


def test_preprocess_image_stage_errors(ray_session):
    """Malformed PNG → decode_error status row (never a task crash);
    strict mode raises on non-PNG payloads."""
    import numpy as np
    import pytest
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline
    from textextract_ray.png import png_encode

    good = png_encode(np.zeros((4, 4, 3), np.uint8))
    corrupt = good[:40] + b"\x00" * 20 + good[60:]  # breaks a CRC
    ds = rd.from_items(
        [{"media_id": 0, "media": corrupt, "media_type": "image"}]
    )
    df = build_pipeline(ds, [{"stage": "preprocess_image"}]).to_pandas()
    assert df["status"].iloc[0].startswith("decode_error")
    assert bytes(df["media"].iloc[0]) == corrupt  # original passes through

    strict_ds = rd.from_items(
        [{"media_id": 1, "media": b"GIF89a123", "media_type": "image"}]
    )
    with pytest.raises(Exception, match="NotImplementedError|requires PIL"):
        build_pipeline(
            strict_ds,
            [{"stage": "preprocess_image", "options": {"strict": True}}],
        ).to_pandas()


def test_resize_kernels_pure():
    """resize_bilinear / center_crop / normalize_chw invariants:
    identity at same size, constant stays constant, ramp slope
    preserved, crop exactness, torchvision Normalize math."""
    import numpy as np

    from textextract_ray.imageops import (
        IMAGENET_MEAN,
        IMAGENET_STD,
        center_crop,
        normalize_chw,
        resize_bilinear,
    )

    rng = np.random.default_rng(3)
    im = rng.integers(0, 256, (37, 53, 3), dtype=np.uint8)
    assert np.array_equal(resize_bilinear(im, 37, 53), im)
    c = np.full((64, 64, 3), 77, np.uint8)
    assert (resize_bilinear(c, 32, 32) == 77).all()
    assert (resize_bilinear(c, 128, 96) == 77).all()
    ramp = np.tile(np.arange(0, 256, 4, dtype=np.uint8)[None, :, None], (64, 1, 3))
    rr = resize_bilinear(ramp, 64, 32)
    d = np.diff(rr[0, :, 0].astype(int))
    assert (np.abs(d - 8) <= 1).all()

    assert center_crop(im, 16, 16).shape == (16, 16, 3)
    # pad path: smaller-than-target edge-replicates
    assert center_crop(im, 64, 64).shape == (64, 64, 3)
    # crop of the crop-sized image is the image
    assert np.array_equal(center_crop(im, 37, 53), im)

    t = normalize_chw(c)
    assert t.shape == (3, 64, 64) and t.dtype == np.float32
    for ch in range(3):
        want = (77 / 255.0 - IMAGENET_MEAN[ch]) / IMAGENET_STD[ch]
        np.testing.assert_allclose(t[ch], want, rtol=1e-5)


def test_resize_image_stage(ray_session):
    """ResizeImage e2e over real own-codec PNGs: PNG mode re-encodes a
    size x size crop decodable by the own codec; tensor mode emits the
    fixed-size normalized CHW tensor; junk skips; truncated PNG becomes
    a decode_error row."""
    import numpy as np
    import ray.data as rd

    from textextract_ray.pipelines.registry import build_pipeline
    from textextract_ray.png import png_decode, png_encode

    rng = np.random.default_rng(9)
    tall = rng.integers(0, 256, (80, 40, 3), dtype=np.uint8)
    wide = rng.integers(0, 256, (40, 80, 3), dtype=np.uint8)
    good_t, good_w = png_encode(tall), png_encode(wide)
    junk = b"\xff\xd8\xffJUNK" * 4
    broken = png_encode(tall)[:40]
    rows = [
        {"media_id": 0, "media": good_t, "media_type": "image"},
        {"media_id": 1, "media": good_w, "media_type": "image"},
        {"media_id": 2, "media": junk, "media_type": "image"},
        {"media_id": 3, "media": broken, "media_type": "image"},
    ]
    ds = rd.from_items(rows)

    out = (
        build_pipeline(ds, [{"stage": "resize_image", "options": {
            "size": 32, "emit": "png", "concurrency": (1, 2)}}])
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    assert out["status"].tolist()[:2] == ["ok", "ok"]
    assert out["status"][2] == "skipped"
    assert out["status"][3].startswith("decode_error")
    for i in (0, 1):
        px = png_decode(out["media"][i])
        assert px.shape == (32, 32, 3)
    # deterministic: second run byte-identical
    out2 = (
        build_pipeline(ds, [{"stage": "resize_image", "options": {
            "size": 32, "emit": "png", "concurrency": (1, 2)}}])
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    assert out["media"].tolist() == out2["media"].tolist()

    tens = (
        build_pipeline(ds, [{"stage": "resize_image", "options": {
            "size": 32, "emit": "tensor", "concurrency": (1, 2)}}])
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    v = np.asarray(tens["tensor"][0])
    assert v.shape == (3 * 32 * 32,) and v.dtype == np.float32
    # tensor equals normalize_chw of the decoded PNG-mode output
    from textextract_ray.imageops import normalize_chw

    np.testing.assert_allclose(
        v, normalize_chw(png_decode(out["media"][0])).ravel(), rtol=1e-6
    )
    # skipped rows carry the zero tensor
    assert (np.asarray(tens["tensor"][2]) == 0).all()


def test_mp4_parser_round_trip():
    """Own ISO BMFF parser over the own synthesizer: brand, movie
    duration, track dims, full sample table (offsets index real frame
    bytes at real timestamps); malformed containers raise."""
    import pytest as _pytest

    from textextract_ray.datagen import synthesize_mp4
    from textextract_ray.mp4 import is_mp4, mp4_parse, mp4_video_samples

    p = synthesize_mp4(7, n_samples=24, fps=12, width=320, height=240)
    assert is_mp4(p)
    assert synthesize_mp4(7) == p  # deterministic
    info = mp4_parse(p)
    assert info.major_brand == "isom"
    assert info.duration_ms == 2000  # 24 frames @ 12 fps
    t = info.video_track()
    assert (t.width, t.height) == (320.0, 240.0)
    assert t.handler == "vide"
    samples = mp4_video_samples(p)
    assert len(samples) == 24
    # timestamps follow the stts grid exactly
    assert [ts for _, _, ts in samples] == [int(i * 1000 / 12) for i in range(24)]
    # offsets/sizes index the actual mdat payload (non-empty, in-bounds,
    # contiguous within the single chunk)
    prev_end = None
    for off, size, _ in samples:
        assert 0 < size and off + size <= len(p)
        if prev_end is not None:
            assert off == prev_end
        prev_end = off + size

    with _pytest.raises(ValueError):
        mp4_parse(b"\x00\x00\x00\x08ftypisom")  # truncated: no moov
    truncated = synthesize_mp4(0)[:60]  # a real file cut inside mdat
    assert is_mp4(truncated)
    with _pytest.raises(ValueError, match="overruns"):
        mp4_parse(truncated)
    with _pytest.raises(ValueError):
        mp4_parse(b"not a container at all")


def test_frame_sample_real_mp4(ray_session):
    """FrameSample's real path: encoded frames picked evenly across the
    container timeline, byte-exact against the sample table; non-MP4
    payloads, and MP4s the parser rejects (a truncated file), keep the
    stub semantics in the same schema rather than failing the task."""
    import ray.data as rd

    from textextract_ray.datagen import synthesize_mp4
    from textextract_ray.mp4 import mp4_video_samples
    from textextract_ray.stages.multimodal import sample_frames

    p = synthesize_mp4(3, n_samples=20, fps=10)
    rows = [
        {"media_id": 3, "media": p, "media_type": "video"},
        {"media_id": 4, "media": b"JUNKJUNKJUNKJUNK" * 8, "media_type": "video"},
        {"media_id": 5, "media": synthesize_mp4(0)[:60], "media_type": "video"},
    ]
    df = (
        sample_frames(rd.from_items(rows), n_frames=4)
        .to_pandas()
        .sort_values(["media_id", "frame_index"])
        .reset_index(drop=True)
    )
    real = df[df["media_id"] == 3]
    assert (real["source"] == "mp4").all()
    samples = mp4_video_samples(p)
    for fi, row in enumerate(real.itertuples()):
        off, size, ts = samples[fi * 20 // 4]
        assert row.frame == p[off : off + size]
        assert row.frame_ts_ms == ts
    stub = df[df["media_id"].isin([4, 5])]
    assert len(stub) == 8
    assert (stub["source"] == "stub").all()
    assert (stub["frame_ts_ms"] == -1).all()


def test_image_features_real_pixels(ray_session):
    """ImageFeatures real path: decodable PNGs yield actual pixel
    statistics (verified against a constant image's known moments);
    non-decodable payloads keep the byte-stub EXACTLY (golden outputs
    over synthetic corpora must never move)."""
    import numpy as np
    import ray.data as rd
    import zlib

    from textextract_ray.png import png_encode
    from textextract_ray.stages.multimodal import extract_features

    const = np.full((20, 30, 3), 128, np.uint8)
    junk = b"\xff\xd8\xffJUNKJUNK" * 3
    rows = [
        {"media_id": 0, "media": png_encode(const), "media_type": "image"},
        {"media_id": 1, "media": junk, "media_type": "image"},
    ]
    df = (
        extract_features(rd.from_items(rows))
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    assert df["feature_source"].tolist() == ["pixels", "bytes"]
    v = np.asarray(df["embedding"][0])
    np.testing.assert_allclose(v[0:3], 128 / 255.0, rtol=1e-5)  # channel means
    np.testing.assert_allclose(v[3:6], 0.0, atol=1e-6)  # constant: zero std
    assert v[6] == 0.0  # no gradients
    assert v[7] == 0.0  # single-bin histogram: zero entropy
    # stub path byte-identical to the original formula
    want = [(zlib.crc32(junk[i::8]) % 10_000) / 10_000.0 for i in range(8)]
    np.testing.assert_allclose(np.asarray(df["embedding"][1]), want, rtol=1e-6)
