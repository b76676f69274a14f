"""The extraction stage: ``ExtractBatch`` over Arrow batches.

Rebuild of the reference's hot path (backend/routes/api_routes.py:19-152):
per-document extract + per-request provenance (timing, request/response
sizes, status, error) — but batched and zero-copy instead of
request/response. The HTML extractor's only state is a byte
limit and a version string (its compiled regexes are module-level and
load with the worker process), so it runs as plain tasks: no pool
spin-up, scheduler-managed parallelism. The callable CLASS pattern
stays for stages with real state (per-language models, PDF parser
handles — the analogue of the module-level Together client at
api_routes.py:16-17 and the singleton session at src/ocr.py:22-41),
which build it ONCE per actor in ``__init__``.

Per-document work is inherently row-wise (each doc is its own parse),
so the "vectorization unit" is the document; the batch loop carries no
per-row Arrow overhead because html bytes are materialized once via
``to_pylist`` on the zero-copy batch.
"""

from __future__ import annotations

import time

import pyarrow as pa

from .. import EXTRACTOR_VERSION
from ..oracle import DEFAULT_MAX_OUTPUT_BYTES, extract_document
from ..schemas import EXTRACTED_SCHEMA

_SPAN_TYPE = EXTRACTED_SCHEMA.field("spans").type

# Transient-vs-poison failure classification (SURVEY §4.2; reference
# retry ladders src/ocr.py:207-259, src/updater.py:105-120): I/O-shaped
# exceptions are retried in place by Ray's task layer — the batch
# re-runs on the (already-warm) actor (Ray Data actor pools default to
# max_restarts=-1 / max_task_retries=-1, so actor deaths already
# recover; DataContext.actor_task_retry_on_errors extends that to
# application-level transient exceptions). Anything NOT in this list
# (a logic bug) fails fast. Poison documents NEVER raise: the
# extractor catches per-document failures and emits a status row
# (see ExtractBatch.__call__), so a malformed input cannot burn
# retries or wedge the pipeline.
TRANSIENT_EXCEPTIONS = (OSError, ConnectionError, TimeoutError)

# Bound for plain-task transient retries: Ray Data's task operators
# default to max_retries=-1, so a PERMANENTLY-failing shard (dead
# mirror, deleted object-store key — both surface as OSError, the
# retryable class) would respawn its task forever and wedge the whole
# pipeline on one input. 4 retries absorbs real transience (each http
# attempt already runs a 3x backoff ladder internally = up to 15
# connection attempts total); the 5th failure surfaces the error to
# the driver, where run_job_versioned's partition granularity makes the retry
# decision a human/scheduler one. Found the hard way: a round-5 test
# against a dead localhost mirror retried one task 401 times before a
# SIGINT ended the run.
TRANSIENT_MAX_RETRIES = 4

# Remote args of every extraction task stage: plain tasks don't consume
# DataContext.actor_task_retry_on_errors (Ray 2.49 reads it only in the
# actor-pool operator), so the transient contract rides the task's own
# remote args — bounded, never Ray Data's default of infinite retries.
TASK_RETRY_ARGS = {
    "retry_exceptions": list(TRANSIENT_EXCEPTIONS),
    "max_retries": TRANSIENT_MAX_RETRIES,
}


def apply_transient_retry_policy() -> None:
    """Idempotently install the transient-retry classification on the
    current DataContext (picked up by every dataset built after the
    call). Called by the actor-pool extraction stages; task stages
    carry ``TASK_RETRY_ARGS`` instead."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    existing = ctx.actor_task_retry_on_errors or []
    if existing is True:
        return
    merged = list(dict.fromkeys([*existing, *TRANSIENT_EXCEPTIONS]))
    ctx.actor_task_retry_on_errors = merged


class ExtractBatch:
    """HTML extraction of one Arrow batch (url, html) -> EXTRACTED_SCHEMA.

    Runs inside the task stages through ``extract_chunk``, or as an
    actor-pool stage (``ds.map_batches(ExtractBatch, concurrency=N,
    fn_constructor_kwargs={"max_output_bytes": ...})``).
    """

    def __init__(self, max_output_bytes: int = DEFAULT_MAX_OUTPUT_BYTES):
        self.max_output_bytes = max_output_bytes
        self.version = EXTRACTOR_VERSION

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        n = len(urls)
        texts, spans, statuses, errors = [], [], [], []
        times_ms, req_sizes, resp_sizes = [], [], []
        for html in htmls:
            t0 = time.perf_counter()
            res = extract_document(html, self.max_output_bytes)
            dt_ms = int((time.perf_counter() - t0) * 1000)
            texts.append(res.text)
            spans.append(res.spans)
            statuses.append(res.status)
            errors.append(res.error)
            times_ms.append(dt_ms)
            req_sizes.append(len(html) if html is not None else 0)
            resp_sizes.append(len(res.text.encode("utf-8")))
        return pa.Table.from_arrays(
            [
                pa.array(urls, pa.string()),
                pa.array(texts, pa.large_string()),
                pa.array(spans, _SPAN_TYPE),
                pa.array(statuses, pa.string()),
                pa.array(errors, pa.string()),
                pa.array(times_ms, pa.int64()),
                pa.array(req_sizes, pa.int64()),
                pa.array(resp_sizes, pa.int64()),
                pa.array([self.version] * n, pa.string()),
            ],
            schema=EXTRACTED_SCHEMA,
        )


def _auto_pool_size() -> int:
    """Actor-pool size for the stateful extraction stages (per-language
    models, PDF parser handles): ~7/8 of the cluster CPUs, the rest left
    for read/write tasks. A fixed-size pool (an int) starts every actor
    immediately — an autoscaling pool ramps too slowly for a batch job."""
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(2, (ncpu * 5) // 8) + max(1, ncpu // 4)


def extract_chunk(
    t: pa.Table,
    extractor: ExtractBatch,
    *,
    batch_size: int,
    where: str,
):
    """The one per-chunk extraction kernel: validate → annotate →
    ``extractor`` per ``batch_size`` slice, yielded slice by slice so
    extracted rows stream downstream (Ray coalesces yields into
    target-size output blocks). ``extract_files`` runs it per decode
    chunk inside its shard task, ``extract_dataset`` per input block.

    Validation casts every chunk to PAGES_SCHEMA at the pipeline
    boundary (explicit DDL-style validation, no inference at 10^12
    rows): a wrong column type fails fast, naming ``where``, not deep
    inside the extractor."""
    from ..schemas import PAGES_SCHEMA, validate_table
    from .validate import annotate_batch

    t = validate_table(t, PAGES_SCHEMA, where=where)
    t = annotate_batch(t)
    for off in range(0, t.num_rows, batch_size):
        yield extractor(t.slice(off, batch_size))


# --- per-language extraction models (A1/A2 + the `language` field) -----------

# public basic stopword heads per language; zh has no word boundaries
# (CJK), so its pattern is a bare alternation
_LANG_MODEL_PATTERNS = {
    "en": r"\b(the|and|of|to|in|a|is|that|for|with)\b",
    "de": r"\b(der|die|das|und|ist|nicht|mit|ein|eine|zu)\b",
    "fr": r"\b(le|la|les|et|est|des|du|dans|pour|que)\b",
    "es": r"\b(el|la|los|las|y|es|del|en|que|por)\b",
    "zh": r"(的|了|和|是|在)",
}


class LangDispatchExtract:
    """Actor-pool extraction with PER-LANGUAGE models (the reference's
    ``language`` request field routing to a per-language engine,
    reference src/ocr.py:196-204, backend/routes/api_routes.py:31-40;
    SURVEY §7 step 5).

    All per-language state — one compiled stopword/tokenizer model per
    language — is built ONCE per actor in ``__init__``; ``__call__``
    dispatches each row on its ``lang`` column, extracts main content
    (same byte-identical oracle as ExtractBatch), then applies the
    row's language model. Per-lang work is vectorized per lang-mask,
    not per row. Unknown langs fall back to a null model (0 matches).

    Output: url, lang, extracted_text, n_tokens (\\S+ runs),
    n_stopwords (per-lang model matches on the lowercased text),
    n_kept = n_tokens - n_stopwords clamped at 0.
    """

    def __init__(self, max_output_bytes: int = DEFAULT_MAX_OUTPUT_BYTES):
        self.max_output_bytes = max_output_bytes
        # the amortized per-actor "model load": the per-lang pattern
        # TABLE (applied via Arrow's RE2 kernel in __call__ — NOT
        # compiled with Python `re`: its Unicode \b semantics differ
        # from RE2's ASCII \b on accented text, and the DuckDB oracle
        # is RE2; keeping one engine keeps the oracle parity exact)
        self.models = dict(_LANG_MODEL_PATTERNS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        urls = batch["url"].to_pylist()
        langs = batch["lang"].to_pylist()
        texts = [
            extract_document(h, self.max_output_bytes).text
            for h in batch["html"].to_pylist()
        ]
        text_arr = pa.array(texts, pa.large_string())
        n_tokens = pc.count_substring_regex(text_arr, r"\S+").cast(pa.int64())
        lower = pc.utf8_lower(text_arr)
        n_stop = np.zeros(len(texts), dtype=np.int64)
        lang_np = np.asarray(langs, dtype=object)
        for lang in set(langs):
            if lang not in self.models:
                continue  # null model: 0 stopword matches
            idx = np.nonzero(lang_np == lang)[0]
            counts = pc.count_substring_regex(
                lower.take(pa.array(idx)), self.models[lang]
            ).to_numpy(zero_copy_only=False)
            n_stop[idx] = counts  # one regex pass per lang SUBSET, O(n) total
        nt = n_tokens.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "extracted_text": text_arr,
                "n_tokens": n_tokens,
                "n_stopwords": pa.array(n_stop, pa.int64()),
                "n_kept": pa.array(np.maximum(nt - n_stop, 0), pa.int64()),
            }
        )


# --- PDF / layout-parser actor path ------------------------------------------

class PdfExtract:
    """Actor-pool stage hosting the stateful PDF/layout parser (the
    north_star's "actor-pool stage hosts stateful PDF/layout parsers").

    The parser is the stdlib-only implementation in
    ``textextract_ray.pdf`` (FlateDecode + content-stream text
    operators — public PDF 1.7 format knowledge, no PDF library
    needed). Parser state (compiled token tables) loads once per actor
    in ``__init__`` and amortizes across batches. Reference contract:
    document bytes in -> text + provenance out (reference
    backend/routes/api_routes.py:78-110).

    ``strict=True`` raises on any row that fails to parse
    (unsupported/ parse_error/invalid) instead of emitting a status
    row — the fail-fast mode for corpora that must be all-PDF.
    """

    def __init__(self, *, strict: bool = False, max_output_bytes: int = DEFAULT_MAX_OUTPUT_BYTES):
        from ..pdf import extract_pdf  # parser state binds per actor

        self.strict = strict
        self.parser = extract_pdf
        self.max_output_bytes = max_output_bytes
        self.version = EXTRACTOR_VERSION

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        blobs = batch["html"].to_pylist()
        n = len(urls)
        texts, spans, statuses, errors = [], [], [], []
        times_ms, req_sizes, resp_sizes = [], [], []
        for url, blob in zip(urls, blobs):
            t0 = time.perf_counter()
            res = self.parser(blob, self.max_output_bytes)
            dt_ms = int((time.perf_counter() - t0) * 1000)
            if self.strict and res.status not in ("ok", "empty", "truncated"):
                raise ValueError(
                    f"PdfExtract(strict): {url!r} failed to parse: "
                    f"{res.status}: {res.error}"
                )
            texts.append(res.text)
            spans.append(res.spans)
            statuses.append(res.status)
            errors.append(res.error)
            times_ms.append(dt_ms)
            req_sizes.append(len(blob) if blob is not None else 0)
            resp_sizes.append(len(res.text.encode("utf-8")))
        return pa.Table.from_arrays(
            [
                pa.array(urls, pa.string()),
                pa.array(texts, pa.large_string()),
                pa.array(spans, _SPAN_TYPE),
                pa.array(statuses, pa.string()),
                pa.array(errors, pa.string()),
                pa.array(times_ms, pa.int64()),
                pa.array(req_sizes, pa.int64()),
                pa.array(resp_sizes, pa.int64()),
                pa.array([self.version] * n, pa.string()),
            ],
            schema=EXTRACTED_SCHEMA,
        )
