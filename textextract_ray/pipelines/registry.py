"""Stage registry + pipeline assembly from a job spec.

The reference's extension surface (SURVEY.md §2.10) is blueprint
registration (`backend/routes/__init__.py:11-18`) plus cross-cutting
decorators (`backend/auth.py:134-179`, `src/utils/api_utils.py:27-99`)
plus a JSON config store (`src/config.py:62-138`). The Ray-native
equivalents:

  * ``register`` / ``STAGE_REGISTRY``: named, composable stages a user
    can slot into a pipeline by name;
  * ``build_pipeline(ds, spec)``: assemble read → N×transform from a
    declarative job-spec (the ``ray job submit`` payload);
  * ``with_error_capture``: stage middleware wrapping any batch kernel
    with error capture → ``_stage_error`` column instead of a raised
    exception (the catch-and-record policy, api_routes.py:134-152) and
    per-batch timing.
"""

from __future__ import annotations

import json
import time

import pyarrow as pa

STAGE_REGISTRY: dict = {}


def register(name: str):
    """Decorator: register a stage factory. The factory receives the
    spec options and returns either a batch fn or a (callable class,
    map_batches kwargs) pair."""

    def deco(factory):
        STAGE_REGISTRY[name] = factory
        return factory

    return deco


def with_error_capture(fn):
    """Middleware: never let a stage kill the job — failures become a
    ``_stage_error`` string column on an otherwise-passed-through
    batch, and every batch gets ``_stage_ms`` timing (the decorator
    chain's timing/error capture as columns).

    Schema contract: if ``fn`` ADDS columns, a failed batch is
    null-filled to the schema of the first successful batch this worker
    saw, so blocks stay union-compatible. A stage that fails on its
    very first batch in every worker before any success still yields
    the input schema — callers needing a hard guarantee should emit
    their own columns inside ``fn``'s error path instead."""

    seen_schema: dict = {}

    def wrapped(batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        try:
            out = fn(batch)
            err = ""
            if "schema" not in seen_schema:
                seen_schema["schema"] = out.schema
        except Exception as exc:
            out = batch
            err = f"{type(exc).__name__}: {exc}"
            ref = seen_schema.get("schema")
            if ref is not None:
                for f in ref:
                    if f.name not in out.column_names:
                        out = out.append_column(
                            f.name, pa.nulls(out.num_rows, f.type)
                        )
        ms = int((time.perf_counter() - t0) * 1000)
        n = out.num_rows
        if "_stage_error" in out.column_names:
            out = out.drop_columns(["_stage_error", "_stage_ms"])
        out = out.append_column("_stage_error", pa.array([err] * n, pa.string()))
        return out.append_column("_stage_ms", pa.array([ms] * n, pa.int64()))

    wrapped.__name__ = getattr(fn, "__name__", "stage")
    return wrapped


def build_pipeline(ds, spec: list | str, *, capture_errors: bool = False):
    """Assemble a Dataset pipeline from a job spec.

    ``spec`` is a list of {"stage": name, "options": {...}} dicts (or a
    JSON string of one — the config-file S4 analogue). Unknown stage
    names raise immediately (fail at submit, not mid-job)."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    for step in spec:
        name = step["stage"]
        if name not in STAGE_REGISTRY:
            raise KeyError(
                f"unknown stage {name!r}; registered: {sorted(STAGE_REGISTRY)}"
            )
    for step in spec:
        factory = STAGE_REGISTRY[step["stage"]]
        built = factory(**step.get("options", {}))
        if isinstance(built, tuple):
            cls, kwargs = built
            ds = ds.map_batches(cls, batch_format="pyarrow", **kwargs)
        elif getattr(built, "is_dataset_op", False):
            # dataset-level stage (multi-pass or reshaping ops that a
            # single map_batches kernel cannot express)
            ds = built(ds)
        else:
            fn = with_error_capture(built) if capture_errors else built
            ds = ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
    return ds


# --- built-in registrations --------------------------------------------------


@register("annotate")
def _annotate_factory():
    from ..stages.validate import annotate_batch

    return annotate_batch


@register("extract")
def _extract_factory(batch_size: int = 64, concurrency=None, max_output_bytes=None):
    from ..oracle import DEFAULT_MAX_OUTPUT_BYTES
    from ..stages.extract import (
        ExtractBatch,
        _auto_pool_size,
        apply_transient_retry_policy,
    )

    apply_transient_retry_policy()
    return (
        ExtractBatch,
        dict(
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency or _auto_pool_size(),
            fn_constructor_kwargs={
                "max_output_bytes": max_output_bytes or DEFAULT_MAX_OUTPUT_BYTES
            },
        ),
    )


@register("content_hash")
def _content_hash_factory(text_col: str = "text"):
    from ..stages.dedup import add_content_hash

    return add_content_hash(text_col)


@register("quality")
def _quality_factory(text_col: str = "text"):
    from ..functions.text import quality_features

    def kernel(batch: pa.Table) -> pa.Table:
        f = quality_features(batch[text_col])
        for c in f.column_names:
            batch = batch.append_column(c, f[c])
        return batch

    return kernel


@register("lang_id")
def _langid_factory(text_col: str = "text"):
    from ..functions.text import lang_id

    def kernel(batch: pa.Table) -> pa.Table:
        return batch.append_column("pred_lang", lang_id(batch[text_col]))

    return kernel


@register("pii_scrub")
def _pii_scrub_factory(text_col: str = "text"):
    from ..functions.text import scrub_pii

    def kernel(batch: pa.Table) -> pa.Table:
        # scrub_pii returns (text_scrubbed, per-type counts); append all
        scrubbed = scrub_pii(batch[text_col])
        for c in scrubbed.column_names:
            batch = batch.append_column(c, scrubbed[c])
        return batch

    return kernel


@register("decode_image")
def _decode_image_factory(batch_size: int = 32, concurrency=(1, 8), strict: bool = False):
    from ..stages.multimodal import DecodeImage

    return (
        DecodeImage,
        dict(
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs={"strict": strict},
        ),
    )


@register("preprocess_image")
def _preprocess_image_factory(batch_size: int = 16, concurrency=(1, 8), strict: bool = False):
    from ..stages.multimodal import PreprocessImage

    return (
        PreprocessImage,
        dict(
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs={"strict": strict},
        ),
    )


@register("resize_image")
def _resize_image_factory(size: int = 224, emit: str = "png",
                          batch_size: int = 16, concurrency=(1, 8),
                          strict: bool = False):
    from ..stages.multimodal import ResizeImage

    return (
        ResizeImage,
        dict(
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs={"size": size, "emit": emit, "strict": strict},
        ),
    )


@register("decode_video")
def _decode_video_factory(batch_size: int = 16, concurrency=(1, 8), strict: bool = False):
    from ..stages.multimodal import DecodeVideo

    return (
        DecodeVideo,
        dict(
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs={"strict": strict},
        ),
    )


@register("frame_sample")
def _frame_sample_factory(n_frames: int = 4, batch_size: int = 8, concurrency=(1, 4)):
    from ..stages.multimodal import FrameSample

    return (
        FrameSample,
        dict(
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs={"n_frames": n_frames},
        ),
    )


@register("group_split")
def _group_split_factory(group_col: str = "source", salt: str = "split"):
    from ..pipelines.textops import SPLIT_FRACTIONS
    from ..functions.text import md5_hex
    import numpy as np

    cum, acc = [], 0.0
    for label, f in SPLIT_FRACTIONS:
        acc += f
        cum.append((label, int(min(1.0, acc) * 16**8)))
    cum[-1] = (cum[-1][0], 16**8)

    def kernel(batch: pa.Table) -> pa.Table:
        keys = [f"{salt}:{k}" for k in batch[group_col].to_pylist()]
        u = np.array([int(h[:8], 16) for h in md5_hex(keys)], dtype=np.int64)
        labels = np.empty(len(u), dtype=object)
        labels[:] = cum[-1][0]
        prev = 0
        for label, hi in cum:
            labels[(u >= prev) & (u < hi)] = label
            prev = hi
        return batch.append_column("split", pa.array(labels, pa.string()))

    return kernel


@register("normalize_text")
def _normalize_text_factory(
    text_col: str = "text", form: str = "NFC", fix_mojibake: bool = True
):
    """Unicode/mojibake cleanup stage (textops.build_normalize_kernel:
    text replaced in place, mojibake_fixed appended, all other columns
    pass through)."""
    from ..pipelines.textops import build_normalize_kernel

    return build_normalize_kernel(text_col, form, fix_mojibake)


@register("sentence_chunks")
def _sentence_chunks_factory(
    max_tokens: int = 128, id_col: str = "doc_id", text_col: str = "text"
):
    from ..pipelines.textops import sentence_chunks_ds

    # reshaping 1->N stage: exposed as a dataset-level op (the builder
    # applies it directly instead of wrapping it in map_batches)
    def ds_op(ds):
        return sentence_chunks_ds(
            ds, max_tokens=max_tokens, id_col=id_col, text_col=text_col
        )

    ds_op.is_dataset_op = True
    return ds_op


@register("image_dhash")
def _image_dhash_factory(
    id_col: str = "media_id", media_col: str = "media",
    batch_size: int = 64, concurrency=(1, 8), strict: bool = False,
):
    from ..stages.multimodal import ImageDHash

    return (
        ImageDHash,
        dict(
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs={
                "id_col": id_col, "media_col": media_col, "strict": strict,
            },
        ),
    )


@register("gopher_filter")
def _gopher_filter_factory(text_col: str = "text", audit: bool = False):
    from ..pipelines.textops import gopher_filter_ds

    def ds_op(ds):
        return gopher_filter_ds(ds, text_col=text_col, audit=audit)

    ds_op.is_dataset_op = True
    return ds_op


@register("noindex_filter")
def _noindex_filter_factory(html_col: str = "html", audit: bool = False):
    from ..pipelines.textops import filter_noindex_ds

    def ds_op(ds):
        return filter_noindex_ds(ds, html_col=html_col, audit=audit)

    ds_op.is_dataset_op = True
    return ds_op


@register("line_frequency_filter")
def _linefreq_factory(text_col: str = "text", min_chars: int = 30,
                      min_count: int = 3, drop_empty: bool = True):
    from ..pipelines.textops import line_frequency_filter_ds

    def ds_op(ds):
        return line_frequency_filter_ds(
            ds, text_col=text_col, min_chars=min_chars,
            min_count=min_count, drop_empty=drop_empty,
        )

    ds_op.is_dataset_op = True
    return ds_op


@register("fim_transform")
def _fim_factory(rate: float = 0.5, seed: int = 0xF1E, min_chars: int = 32,
                 id_col: str = "doc_id", text_col: str = "text"):
    from ..pipelines.textops import fim_transform_ds

    def ds_op(ds):
        return fim_transform_ds(
            ds, rate=rate, seed=seed, min_chars=min_chars,
            id_col=id_col, text_col=text_col,
        )

    ds_op.is_dataset_op = True
    return ds_op


@register("span_corrupt")
def _span_corrupt_factory(rate: float = 0.15, mean_span: int = 3,
                          seed: int = 0x55C, min_tokens: int = 8,
                          max_sentinels: int = 100,
                          id_col: str = "doc_id", text_col: str = "text"):
    from ..pipelines.textops import span_corrupt_ds

    def ds_op(ds):
        return span_corrupt_ds(
            ds, rate=rate, mean_span=mean_span, seed=seed,
            min_tokens=min_tokens, max_sentinels=max_sentinels,
            id_col=id_col, text_col=text_col,
        )

    ds_op.is_dataset_op = True
    return ds_op


@register("embed_text")
def _embed_text_factory(text_col: str = "text", id_col: str = "doc_id",
                        dim: int = 64, keep_cols=()):
    from ..pipelines.embed import embed_text_ds

    def ds_op(ds):
        return embed_text_ds(
            ds, text_col=text_col, id_col=id_col, dim=dim,
            keep_cols=tuple(keep_cols),
        )

    ds_op.is_dataset_op = True
    return ds_op


@register("robots_filter")
def _robots_filter_factory(robots_path: str, url_col: str = "url",
                           agent: str = "*", audit: bool = False):
    from ..pipelines.textops import robots_filter_ds

    def ds_op(ds):
        import ray.data as rd

        robots = rd.read_parquet(robots_path)
        return robots_filter_ds(ds, robots, url_col=url_col, agent=agent,
                                audit=audit)

    ds_op.is_dataset_op = True
    return ds_op


@register("text_signal_tags")
def _text_signal_tags_factory(text_col: str = "text", scripts: bool = True,
                              readability: bool = True, pii_audit: bool = True):
    """Append the script/readability/Luhn signal columns to the docs
    themselves (the in-line form; use pipelines.attributes for the
    sidecar-store form)."""
    from ..pipelines.attributes import (
        pii_audit_taggers,
        readability_taggers,
        script_taggers,
    )

    taggers = {}
    if scripts:
        taggers.update(script_taggers(text_col))
    if readability:
        taggers.update(readability_taggers(text_col))
    if pii_audit:
        taggers.update(pii_audit_taggers(text_col))

    def ds_op(ds):
        import pyarrow as pa

        def kernel(batch: pa.Table) -> pa.Table:
            out = batch
            for name, fn in taggers.items():
                out = out.append_column(name, fn(batch))
            return out

        return ds.map_batches(kernel, batch_format="pyarrow",
                              zero_copy_batch=True)

    ds_op.is_dataset_op = True
    return ds_op
