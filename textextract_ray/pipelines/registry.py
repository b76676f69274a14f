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
