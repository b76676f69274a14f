"""Multimodal (image/audio/video) stage plumbing.

Media travels as opaque ``binary`` columns with typed metadata — the
Arrow-native analogue of the reference's base64-PNG payload
(reference src/ocr.py:62-67) without the wire encoding. Decode /
feature-extract / resize / frame-sample are actor-pool ``map_batches``
stages shaped exactly like production ones (state in ``__init__``,
small batch sizes for large payloads, Arrow in/out, fixed output
schemas).

CODEC NOTICE: this container has no PIL/ffmpeg, but PNG needs only
stdlib zlib — ``textextract_ray.png`` is a real pure-stdlib PNG codec,
and DecodeImage uses it for any payload with a VALID PNG structure
(signature + well-formed IHDR): real width/height, real decode errors.
The decode ladder is PIL (if importable) → own PNG codec → stub. The
stub remains for every other format and for magic-prefix-only
synthetic payloads (the driver corpus): metadata derived purely from
the payload bytes (magic number, length), deterministic and
SQL-expressible, so schemas, batch flow, and output layout stay
testable. ``strict=True`` raises instead of stubbing. Video: the
CONTAINER layer is real — ``textextract_ray.mp4`` parses ISO BMFF box
structure and sample tables, so FrameSample returns real encoded
frames at real container timestamps. Pixel decode of those frames has no stdlib path (no
ffmpeg) and remains out of scope.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from ..imagemeta import gif_dims, jpeg_dims, webp_dims
from ..png import UnsupportedPngError, has_valid_ihdr, png_decode

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64()),
        pa.field("media", pa.binary()),
        pa.field("media_type", pa.string()),  # image|audio|video|unknown
    ]
)

IMAGE_META_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64()),
        pa.field("format", pa.string()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("n_bytes", pa.int64()),
        pa.field("status", pa.string()),
    ]
)

_MAGIC_FORMATS = (
    (b"\x89PNG\r\n\x1a\n", "png"),
    (b"\xff\xd8\xff", "jpeg"),
    (b"GIF87a", "gif"),
    (b"GIF89a", "gif"),
    (b"RIFF", "riff"),  # wav/webp container
    (b"%PDF-", "pdf"),
)


def sniff_format(payload: bytes) -> str:
    for magic, name in _MAGIC_FORMATS:
        if payload.startswith(magic):
            return name
    return "unknown"


def _fake_dims(payload: bytes) -> tuple:
    """Deterministic fake decode: dimensions derived from byte length
    only (SQL-expressible so the driver gate can oracle-check the
    plumbing): width = n*7 % 1024 + 16, height = n*13 % 1024 + 16."""
    n = len(payload)
    return (n * 7) % 1024 + 16, (n * 13) % 1024 + 16


class DecodeImage:
    """Actor-pool stage: binary payload -> typed image metadata.

    Real path (PIL present): ``Image.open(BytesIO(payload))``.
    Stub path: magic sniff + deterministic fake dims. ``strict=True``
    raises NotImplementedError instead of faking — use in production.
    """

    def __init__(self, *, strict: bool = False):
        self.strict = strict
        try:
            from PIL import Image  # noqa: F401  (absent in this container)

            self._pil = Image
        except ImportError:
            self._pil = None

    def _decode(self, payload: bytes) -> tuple:
        if self._pil is not None:
            import io

            with self._pil.open(io.BytesIO(payload)) as im:
                return im.format.lower(), im.width, im.height, "ok"
        if has_valid_ihdr(payload):
            try:
                # real decode (own stdlib codec): real dims, and a real
                # decode_error status if the pixel data is malformed
                px = png_decode(payload)
                return "png", int(px.shape[1]), int(px.shape[0]), "ok"
            except UnsupportedPngError:
                # VALID image outside the stdlib codec's subset
                # (palette/16-bit/interlaced): not a decode error —
                # strict demands a real codec, non-strict stubs it
                if not self.strict:
                    w, h = _fake_dims(payload)
                    return "png", w, h, "ok"
                raise NotImplementedError(
                    "PNG outside the stdlib codec subset requires PIL; "
                    "not available in this container"
                ) from None
        # JPEG/GIF: real *header* metadata via stdlib struct parsing
        # (imagemeta.py) — dims come from the actual SOF / logical
        # screen descriptor, so this is a real decode of everything
        # this stage emits, valid even under strict. The parsers
        # return None for magic-prefix-only junk, which falls through
        # to the stub (or the strict raise) exactly as before.
        dims = jpeg_dims(payload)
        if dims is not None:
            return "jpeg", dims[0], dims[1], "ok"
        dims = gif_dims(payload)
        if dims is not None:
            return "gif", dims[0], dims[1], "ok"
        dims = webp_dims(payload)
        if dims is not None:
            return "webp", dims[0], dims[1], "ok"
        if self.strict:
            raise NotImplementedError(
                "non-PNG image decode requires PIL; not available in this "
                "container (stub path: DecodeImage(strict=False))"
            )
        fmt = sniff_format(payload)
        w, h = _fake_dims(payload)
        return fmt, w, h, "ok" if fmt != "unknown" else "unsupported"

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["media"].to_pylist()
        fmts, ws, hs, sts = [], [], [], []
        for p in payloads:
            try:
                f, w, h, s = self._decode(p or b"")
            except NotImplementedError:
                raise
            except Exception as exc:  # decode failure -> status row
                f, w, h, s = "unknown", 0, 0, f"decode_error: {type(exc).__name__}"
            fmts.append(f)
            ws.append(w)
            hs.append(h)
            sts.append(s)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(fmts, pa.string()),
                pa.array(ws, pa.int32()),
                pa.array(hs, pa.int32()),
                pa.array([len(p or b"") for p in payloads], pa.int64()),
                pa.array(sts, pa.string()),
            ],
            schema=IMAGE_META_SCHEMA,
        )


class ImageDHash:
    """Actor-pool stage: image payload -> 64-bit perceptual difference
    hash (imageops.dhash64) for near-duplicate-image detection. The
    hash feeds the pigeonhole hamming banding
    (`stages.dedup.hamming64_duplicate_assignments`) — pixels stay inside
    this stage; only (id, dhash) leaves.

    Decode ladder mirrors PreprocessImage: PIL if importable, else the
    own stdlib PNG codec. Undecodable / out-of-subset payloads emit
    status "skipped" with dhash null (strict=True raises instead);
    malformed PNGs become decode_error rows."""

    def __init__(self, *, id_col: str = "media_id", media_col: str = "media",
                 strict: bool = False):
        self.id_col = id_col
        self.media_col = media_col
        self.strict = strict
        try:
            from PIL import Image  # noqa: F401

            self._pil = Image
        except ImportError:
            self._pil = None

    def _pixels(self, payload: bytes) -> "np.ndarray":
        if self._pil is not None:
            import io

            with self._pil.open(io.BytesIO(payload)) as im:
                return np.asarray(im.convert("RGB"))
        return png_decode(payload)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..imageops import dhash64

        ids = batch[self.id_col].to_pylist()
        payloads = batch[self.media_col].to_pylist()
        hashes, sts = [], []
        for p in payloads:
            p = p or b""
            if not has_valid_ihdr(p) and self._pil is None:
                if self.strict:
                    raise NotImplementedError(
                        "non-PNG perceptual hashing requires PIL; not "
                        "available in this container "
                        "(skip path: ImageDHash(strict=False))"
                    )
                hashes.append(None)
                sts.append("skipped")
                continue
            try:
                hashes.append(dhash64(self._pixels(p)))
                sts.append("ok")
            except UnsupportedPngError:
                if self.strict:
                    raise NotImplementedError(
                        "PNG outside the stdlib codec subset requires PIL"
                    ) from None
                hashes.append(None)
                sts.append("skipped")
            except Exception as exc:
                hashes.append(None)
                sts.append(f"decode_error: {type(exc).__name__}")
        return pa.table(
            {
                self.id_col: pa.array(ids, pa.int64()),
                "dhash": pa.array(hashes, pa.uint64()),
                "status": pa.array(sts, pa.string()),
            }
        )


class ImageFeatures:
    """Actor-pool stage: payload -> fixed-dim feature vector.

    REAL path for payloads the own PNG codec decodes (``pixel_stats=True``,
    the default): an 8-dim vector of actual pixel statistics — per-channel
    mean and std (6), mean absolute horizontal+vertical gradient of the
    luma (edge density, 1), and luma entropy over a 16-bin histogram (1) —
    all whole-image numpy, each scaled to [0, 1]. A vision model loaded
    once per actor would slot in here; these are the classic cheap
    global descriptors (color moments + edge density + entropy).

    Stub path for everything else, BYTE-IDENTICAL to the original stub
    (crc32 of 8 strided views) so golden-pinned outputs over synthetic
    corpora never move."""

    DIM = 8

    def __init__(self, *, pixel_stats: bool = True):
        self.dim = self.DIM  # model handle would load here
        self.pixel_stats = pixel_stats

    def _pixel_vec(self, payload: bytes):
        from ..imageops import luma, to_rgb
        from ..png import png_decode

        px = to_rgb(png_decode(payload)).astype(np.float64)
        if px.size == 0:
            return None
        feats = np.empty(8, dtype=np.float32)
        feats[0:3] = px.mean(axis=(0, 1)) / 255.0
        feats[3:6] = px.std(axis=(0, 1)) / 255.0
        lum = luma(px.astype(np.uint8))
        grad = 0.0
        if lum.shape[0] > 1:
            grad += np.abs(np.diff(lum, axis=0)).mean()
        if lum.shape[1] > 1:
            grad += np.abs(np.diff(lum, axis=1)).mean()
        feats[6] = min(1.0, grad / 255.0)
        hist, _ = np.histogram(lum, bins=16, range=(0.0, 256.0))
        pdist = hist / max(1, hist.sum())
        nz = pdist[pdist > 0]
        feats[7] = float(-(nz * np.log2(nz)).sum() / 4.0)  # /log2(16)
        return feats

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["media"].to_pylist()
        vecs, srcs = [], []
        for p in payloads:
            p = p or b"\x00"
            v = None
            if self.pixel_stats and has_valid_ihdr(p):
                try:
                    v = self._pixel_vec(p)
                except Exception:
                    v = None  # out-of-subset / malformed: stub below
            if v is not None:
                vecs.append(v.tolist())
                srcs.append("pixels")
            else:
                vecs.append(
                    [
                        (zlib.crc32(p[i :: self.dim]) % 10_000) / 10_000.0
                        for i in range(self.dim)
                    ]
                )
                srcs.append("bytes")
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
                "feature_source": pa.array(srcs, pa.string()),
            }
        )


class FrameSample:
    """Actor-pool stage: video payload -> N frame rows (a flat-map:
    output rows > input rows).

    REAL path (container-level, own stdlib parser — textextract_ray.mp4):
    a structurally valid MP4 has its sample table parsed and n_frames
    ENCODED video samples picked evenly across the real container
    timeline — actual frame bytes at actual timestamps, no codec
    needed. Pixel decode of those samples stays out of scope (no
    ffmpeg; flagged in the module notice). Stub path for everything
    else: deterministic byte-slice "frames" with frame_ts_ms = -1, so
    the driver-corpus plumbing gate keeps its exact semantics."""

    def __init__(self, n_frames: int = 4):
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..mp4 import is_mp4, mp4_video_samples

        ids = batch["media_id"].to_pylist()
        payloads = batch["media"].to_pylist()
        out_id, out_idx, out_frame, out_ts, out_src = [], [], [], [], []
        for mid, p in zip(ids, payloads):
            p = p or b""
            samples = []
            if is_mp4(p):
                try:
                    samples = mp4_video_samples(p)
                except ValueError:
                    samples = []  # malformed container -> stub path
            if samples:
                n = len(samples)
                for fi in range(self.n_frames):
                    off, size, ts = samples[min(n - 1, fi * n // self.n_frames)]
                    out_id.append(mid)
                    out_idx.append(fi)
                    out_frame.append(p[off : off + size])
                    out_ts.append(ts)
                    out_src.append("mp4")
            else:
                step = max(1, len(p) // self.n_frames)
                for fi in range(self.n_frames):
                    out_id.append(mid)
                    out_idx.append(fi)
                    out_frame.append(p[fi * step : fi * step + min(step, 4096)])
                    out_ts.append(-1)
                    out_src.append("stub")
        return pa.table(
            {
                "media_id": pa.array(out_id, pa.int64()),
                "frame_index": pa.array(out_idx, pa.int32()),
                "frame": pa.array(out_frame, pa.binary()),
                "frame_ts_ms": pa.array(out_ts, pa.int64()),
                "source": pa.array(out_src, pa.string()),
            }
        )


PREPROCESSED_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64()),
        pa.field("media", pa.binary()),  # re-encoded PNG (RGB)
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("status", pa.string()),  # ok | skipped | decode_error: *
    ]
)


class PreprocessImage:
    """Actor-pool stage: PNG payload -> enhanced PNG payload (REAL
    pixel math, the reference's OCR preprocessing — contrast 1.5,
    sharpness 1.2, brightness 1.1, reference src/ocr.py:43-60).

    Decode ladder mirrors DecodeImage: PIL if importable, else the own
    stdlib PNG codec. Pixels run through imageops.preprocess_pixels
    (vectorized numpy, RGB out) and re-encode as filter-0 PNG — the
    whole path is deterministic, so output payloads are byte-stable
    across runs/layouts. Non-PNG or out-of-subset payloads pass
    through unchanged with status "skipped" (strict=True raises
    instead); malformed PNGs become decode_error status rows."""

    def __init__(self, *, strict: bool = False):
        self.strict = strict
        try:
            from PIL import Image, ImageEnhance  # noqa: F401

            self._pil = Image
        except ImportError:
            self._pil = None

    def _enhance(self, payload: bytes) -> tuple:
        from ..imageops import preprocess_pixels
        from ..png import png_encode

        if self._pil is not None:
            import io

            from PIL import ImageEnhance

            with self._pil.open(io.BytesIO(payload)) as im:
                im = im.convert("RGB")
                for enh, f in (
                    (ImageEnhance.Contrast, 1.5),
                    (ImageEnhance.Sharpness, 1.2),
                    (ImageEnhance.Brightness, 1.1),
                ):
                    im = enh(im).enhance(f)
                buf = io.BytesIO()
                im.save(buf, format="PNG")
                return buf.getvalue(), im.width, im.height, "ok"
        px = png_decode(payload)  # ValueError/Unsupported handled by caller
        out = preprocess_pixels(px)
        return png_encode(out), int(out.shape[1]), int(out.shape[0]), "ok"

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["media"].to_pylist()
        out_media, ws, hs, sts = [], [], [], []
        for p in payloads:
            p = p or b""
            if not has_valid_ihdr(p):
                if self.strict:
                    raise NotImplementedError(
                        "non-PNG pixel preprocessing requires PIL; not "
                        "available in this container "
                        "(pass-through: PreprocessImage(strict=False))"
                    )
                out_media.append(p)
                ws.append(0)
                hs.append(0)
                sts.append("skipped")
                continue
            try:
                m, w, h, s = self._enhance(p)
            except UnsupportedPngError:
                if self.strict:
                    raise NotImplementedError(
                        "PNG outside the stdlib codec subset requires PIL"
                    ) from None
                m, w, h, s = p, 0, 0, "skipped"
            except Exception as exc:
                m, w, h, s = p, 0, 0, f"decode_error: {type(exc).__name__}"
            out_media.append(m)
            ws.append(w)
            hs.append(h)
            sts.append(s)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(out_media, pa.binary()),
                pa.array(ws, pa.int32()),
                pa.array(hs, pa.int32()),
                pa.array(sts, pa.string()),
            ],
            schema=PREPROCESSED_SCHEMA,
        )


class ResizeImage:
    """Actor-pool stage: PNG payload -> fixed-size model input (the
    resize step of the training-data brief: decode → bilinear resize
    (shorter side to ``size``) → center crop ``size×size`` → emit).

    ``emit="png"`` re-encodes the resized crop (filter-0 PNG,
    byte-deterministic); ``emit="tensor"`` emits the normalized
    float32 CHW tensor as a fixed-size ``list<float32>`` of
    3·size·size — the exact layout a batched vision model consumes,
    zero-copy from Arrow to numpy. Decode ladder and
    strict/skip/decode_error semantics mirror PreprocessImage."""

    def __init__(self, *, size: int = 224, emit: str = "png", strict: bool = False):
        if emit not in ("png", "tensor"):
            raise ValueError(f"emit must be png|tensor, got {emit!r}")
        self.size = size
        self.emit = emit
        self.strict = strict

    def _resize(self, payload: bytes) -> np.ndarray:
        from ..imageops import center_crop, resize_bilinear, to_rgb

        px = to_rgb(png_decode(payload))
        h, w = px.shape[:2]
        s = self.size
        # shorter side -> s, preserve aspect, then center crop (the
        # torchvision Resize+CenterCrop eval transform)
        if h <= w:
            px = resize_bilinear(px, s, max(s, int(round(w * s / h))))
        else:
            px = resize_bilinear(px, max(s, int(round(h * s / w))), s)
        return center_crop(px, s, s)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..imageops import normalize_chw
        from ..png import png_encode

        ids = batch["media_id"].to_pylist()
        payloads = batch["media"].to_pylist()
        s = self.size
        out_payload, out_tensor, sts = [], [], []
        zero = np.zeros(3 * s * s, dtype=np.float32)
        for p in payloads:
            p = p or b""
            px = None
            if not has_valid_ihdr(p):
                if self.strict:
                    raise NotImplementedError(
                        "non-PNG resize requires PIL; not available in this "
                        "container (pass-through: ResizeImage(strict=False))"
                    )
                status = "skipped"
            else:
                try:
                    px = self._resize(p)
                    status = "ok"
                except UnsupportedPngError:
                    if self.strict:
                        raise NotImplementedError(
                            "PNG outside the stdlib codec subset requires PIL"
                        ) from None
                    status = "skipped"
                except Exception as exc:
                    status = f"decode_error: {type(exc).__name__}"
            sts.append(status)
            if self.emit == "png":
                out_payload.append(png_encode(px) if px is not None else p)
            else:
                out_tensor.append(
                    normalize_chw(px).ravel() if px is not None else zero
                )
        cols = {
            "media_id": pa.array(ids, pa.int64()),
        }
        if self.emit == "png":
            cols["media"] = pa.array(out_payload, pa.binary())
        else:
            flat = pa.array(
                np.concatenate(out_tensor) if out_tensor else
                np.array([], dtype=np.float32),
                pa.float32(),
            )
            cols["tensor"] = pa.FixedSizeListArray.from_arrays(flat, 3 * s * s)
        cols["width"] = pa.array([s] * len(ids), pa.int32())
        cols["height"] = pa.array([s] * len(ids), pa.int32())
        cols["status"] = pa.array(sts, pa.string())
        return pa.table(cols)


AUDIO_META_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64()),
        pa.field("format", pa.string()),
        pa.field("sample_rate", pa.int32()),
        pa.field("channels", pa.int32()),
        pa.field("sample_width", pa.int32()),  # bytes per sample
        pa.field("n_frames", pa.int64()),
        pa.field("duration_ms", pa.int64()),
        pa.field("status", pa.string()),
    ]
)


class DecodeAudio:
    """Actor-pool stage: audio payload -> typed audio metadata.

    WAV/PCM decodes for REAL via the stdlib ``wave`` module (RIFF is
    the one audio container a codec-less box can fully parse — the
    audio analogue of the stdlib PNG codec); other formats get the
    deterministic stub (metadata derived from payload bytes) or, with
    ``strict=True``, NotImplementedError. Malformed RIFF payloads
    become ``decode_error`` status rows, never task crashes."""

    def __init__(self, *, strict: bool = False):
        self.strict = strict

    def _decode(self, payload: bytes) -> tuple:
        import io
        import wave

        if payload.startswith(b"RIFF") and payload[8:12] == b"WAVE":
            with wave.open(io.BytesIO(payload)) as w:
                rate, ch, width, n = (
                    w.getframerate(),
                    w.getnchannels(),
                    w.getsampwidth(),
                    w.getnframes(),
                )
            dur = int(n * 1000 / rate) if rate else 0
            return "wav", rate, ch, width, n, dur, "ok"
        if self.strict:
            raise NotImplementedError(
                "non-WAV audio decode requires ffmpeg/soundfile; not "
                "available in this container (stub: DecodeAudio(strict=False))"
            )
        n = len(payload)
        # deterministic stub, same spirit as _fake_dims
        return (
            sniff_format(payload),
            8000 + n % 40000,
            1 + n % 2,
            2,
            n,
            int(n * 1000 / (8000 + n % 40000)),
            "stubbed",
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["media"].to_pylist()
        rows = []
        for p in payloads:
            try:
                rows.append(self._decode(p or b""))
            except NotImplementedError:
                raise
            except Exception as exc:
                rows.append(("wav", 0, 0, 0, 0, 0, f"decode_error: {type(exc).__name__}"))
        cols = list(zip(*rows)) if rows else [[]] * 7
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(list(cols[0]), pa.string()),
                pa.array(list(cols[1]), pa.int32()),
                pa.array(list(cols[2]), pa.int32()),
                pa.array(list(cols[3]), pa.int32()),
                pa.array(list(cols[4]), pa.int64()),
                pa.array(list(cols[5]), pa.int64()),
                pa.array(list(cols[6]), pa.string()),
            ],
            schema=AUDIO_META_SCHEMA,
        )


def decode_audio(media_ds, *, batch_size: int = 32, concurrency=(1, 8), strict: bool = False):
    return media_ds.map_batches(
        DecodeAudio,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"strict": strict},
    )


def decode_images(media_ds, *, batch_size: int = 32, concurrency=(1, 8), strict: bool = False):
    """media Dataset -> image metadata Dataset. Small batch_size: a
    batch × concurrency of multi-MB payloads must fit worker heaps."""
    return media_ds.map_batches(
        DecodeImage,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"strict": strict},
    )


def extract_features(media_ds, *, batch_size: int = 32, concurrency=(1, 8)):
    return media_ds.map_batches(
        ImageFeatures,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


def sample_frames(media_ds, *, n_frames: int = 4, batch_size: int = 8, concurrency=(1, 4)):
    return media_ds.map_batches(
        FrameSample,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"n_frames": n_frames},
    )


AUDIO_FEATURES_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64()),
        pa.field("duration_ms", pa.int64()),
        pa.field("rms", pa.float64()),           # mean loudness, [-1,1] scale
        pa.field("peak", pa.float64()),          # max |sample|
        pa.field("zcr", pa.float64()),           # zero-crossing rate per sample
        pa.field("silence_frac", pa.float64()),  # |sample| < 1% full scale
        pa.field("clipping_frac", pa.float64()),  # |sample| > 99% full scale
        pa.field("status", pa.string()),
    ]
)


class AudioFeatures:
    """Actor-pool stage: WAV payload -> REAL sample-level features
    (the audio analogue of ImageFeatures' pixel statistics): RMS
    loudness, peak, zero-crossing rate, silence and clipping
    fractions — the standard cheap screens for dead/garbled/clipped
    audio in a media-corpus pipeline. PCM frames read via the stdlib
    ``wave`` module, statistics fully numpy-vectorized; multi-channel
    audio averages to mono first. Non-WAV payloads emit status
    "skipped" with zeroed features (strict=True raises); malformed
    RIFF becomes a decode_error row. 8/16/32-bit integer PCM
    supported (the wave module's subset)."""

    def __init__(self, *, strict: bool = False, max_frames: int = 10_000_000):
        self.strict = strict
        self.max_frames = max_frames  # bound per-row memory (~40 MB mono f64)

    def _features(self, payload: bytes) -> tuple:
        import io
        import wave

        with wave.open(io.BytesIO(payload)) as w:
            rate, ch, width = w.getframerate(), w.getnchannels(), w.getsampwidth()
            total_frames = w.getnframes()
            n = min(total_frames, self.max_frames)
            raw = w.readframes(n)
        # duration reflects the WHOLE clip (from the header frame count);
        # the statistics below are over the max_frames-bounded prefix
        dur = int(total_frames * 1000 / rate) if rate else 0
        if width == 2:
            x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
        elif width == 1:  # 8-bit WAV is unsigned
            x = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
        elif width == 4:
            x = np.frombuffer(raw, dtype="<i4").astype(np.float64) / 2147483648.0
        else:
            raise ValueError(f"unsupported sample width {width}")
        if ch > 1:
            x = x[: len(x) - len(x) % ch].reshape(-1, ch).mean(axis=1)
        if len(x) == 0:
            return dur, 0.0, 0.0, 0.0, 1.0, 0.0, "ok"
        rms = float(np.sqrt(np.mean(x * x)))
        peak = float(np.abs(x).max())
        zcr = float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1]))) if len(x) > 1 else 0.0
        silence = float(np.mean(np.abs(x) < 0.01))
        clipping = float(np.mean(np.abs(x) > 0.99))
        return dur, rms, peak, zcr, silence, clipping, "ok"

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        rows = []
        for p in batch["media"].to_pylist():
            p = p or b""
            if not (p.startswith(b"RIFF") and p[8:12] == b"WAVE"):
                if self.strict:
                    raise NotImplementedError(
                        "non-WAV audio features require ffmpeg/soundfile; "
                        "not available in this container "
                        "(skip path: AudioFeatures(strict=False))"
                    )
                rows.append((0, 0.0, 0.0, 0.0, 0.0, 0.0, "skipped"))
                continue
            try:
                rows.append(self._features(p))
            except NotImplementedError:
                raise
            except Exception as exc:
                rows.append(
                    (0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     f"decode_error: {type(exc).__name__}")
                )
        cols = list(zip(*rows)) if rows else [[]] * 7
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(list(cols[0]), pa.int64()),
                pa.array(list(cols[1]), pa.float64()),
                pa.array(list(cols[2]), pa.float64()),
                pa.array(list(cols[3]), pa.float64()),
                pa.array(list(cols[4]), pa.float64()),
                pa.array(list(cols[5]), pa.float64()),
                pa.array(list(cols[6]), pa.string()),
            ],
            schema=AUDIO_FEATURES_SCHEMA,
        )


def audio_features(media_ds, *, batch_size: int = 32, concurrency=(1, 8),
                   strict: bool = False):
    """media Dataset -> per-clip sample statistics (AudioFeatures)."""
    return media_ds.map_batches(
        AudioFeatures,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"strict": strict},
    )
