"""Pruned Parquet readers for the test tables and pages shards.

The reference's "source" is a screen grab (src/ocr.py:158-167); ours is
``ray.data.read_parquet`` with column pruning and row-group predicate
pushdown — only the columns a pipeline touches leave storage.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.block import BlockAccessor


def _pin_fsspec_http_import() -> None:
    """Defuse a concurrent-import race in Ray's path resolution.

    ``ray.data.datasource.path_util._is_http_filesystem`` does a lazy
    ``from fsspec.implementations.http import HTTPFileSystem`` on every
    read and catches only ModuleNotFoundError. In this container the
    import fails (no aiohttp), and Python removes the failed module
    from sys.modules — so two driver threads resolving paths
    concurrently (e.g. a background commit thread and a foreground
    read) can race the partial import and surface a plain ImportError
    that Ray does not catch. Pin a stub module once:
    the sentinel class can never match a real filesystem instance, so
    ``_is_http_filesystem`` correctly returns False ever after."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
    except Exception:
        import sys
        import types

        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # sentinel for isinstance checks only
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod


_pin_fsspec_http_import()


def is_http(path: str) -> bool:
    """One copy of the whole-file-fetch scheme predicate (http(s) has
    no Range support on bare mirrors, so these schemes buffer whole
    shards) — shared by the fetch, grouping, sampling-cap and listing
    decisions so they can never drift."""
    return str(path).split("://", 1)[0] in ("http", "https")


def _http_get(url: str, *, retries: int = 3, backoff: float = 1.0,
              chunk: int = 65536) -> bytes:
    """Stream one URL fully into memory with a retry ladder — the
    reference updater's download shape (3 attempts, 1 s backoff,
    64 KB chunks; src/updater.py:105-120,605), minus the disk spool:
    a parquet shard is parsed straight from the buffer."""
    import io
    import time
    import urllib.error
    import urllib.request

    last: Exception | None = None
    for attempt in range(retries):
        try:
            buf = io.BytesIO()
            with urllib.request.urlopen(url) as resp:
                while True:
                    b = resp.read(chunk)
                    if not b:
                        break
                    buf.write(b)
            return buf.getvalue()
        except (OSError, urllib.error.URLError) as exc:  # transient: retry
            last = exc
            time.sleep(backoff * (attempt + 1))
    raise last  # type: ignore[misc]


def _fs_from_uri(uri: str):
    """Resolve a URI to (filesystem, path). pyarrow-native schemes
    (file://, s3://, gcs://, hdfs://) resolve directly; any other
    fsspec-resolvable scheme falls back to an fsspec filesystem
    wrapped as a pyarrow ``PyFileSystem`` — the exact route an
    object-store scheme without a native pyarrow driver takes, so the
    fallback is testable offline with fsspec's built-in schemes."""
    from pyarrow import fs as pafs

    try:
        return pafs.FileSystem.from_uri(uri)
    except Exception:
        import fsspec
        from pyarrow.fs import FSSpecHandler, PyFileSystem

        fs, path = fsspec.core.url_to_fs(uri)
        return PyFileSystem(FSSpecHandler(fs)), path


def open_shard(path: str):
    """Resolve a shard path/URI to something the incremental decoders
    (``pq.ParquetFile``, gzip/WARC framing) can read worker-side.

    Local paths pass through as strings (the mmap fast path).
    ``http(s)://`` streams the whole shard into a buffer with the retry
    ladder (no Range support on bare crawl mirrors — whole-file
    transfer is the floor, matching the reference's streamed download,
    src/updater.py:545-715). Any other scheme opens a RANDOM-ACCESS
    file through the URI's filesystem (pyarrow-native for s3/gcs/hdfs,
    fsspec-wrapped otherwise), so parquet row groups still decode
    incrementally — worker heap stays bounded by one decode chunk even
    when the shard lives in an object store. This is what lets the
    fused read+extract path (``extract_files``) keep its zero-plasma
    data motion on the storage layout a 100-TB cluster actually uses."""
    if "://" not in path:
        return path
    if is_http(path):
        import io

        return io.BytesIO(_http_get(path))
    f, sp = _fs_from_uri(path)
    return f.open_input_file(sp)


def read_table(sf_dir: str, name: str, columns=None, filter=None) -> rd.Dataset:
    """Read one test table with column pruning + pushdown, as a lazy
    Dataset: the gate queries outside the seven ``query_mix`` ones
    use it; those seven scan with `scan_table`.

    The table is one file, read as ONE read task with no output split
    (``override_num_blocks=1``, the ``extract_files`` one-task-per-shard
    convention). Left to its default, Ray inflates a single file
    towards ``read_op_min_num_blocks`` by splitting the read's output,
    and an operator with a split factor never fuses: every downstream
    ``map_batches`` would run as a separate stage of ~20 tiny tasks.
    The trade: one table's kernel no longer spreads over CPUs (SCALE.md)."""
    path = os.path.join(sf_dir, f"{name}.parquet")
    kwargs = {}
    if columns is not None:
        kwargs["columns"] = list(columns)
    if filter is not None:
        kwargs["filter"] = filter
    return rd.read_parquet(path, override_num_blocks=1, **kwargs)


@ray.remote
def _scan(src, fn, columns, *fn_args):
    """``fn(table, *fn_args)`` over a table file (``src`` a path) or a
    block (a ref, resolved by Ray like every ref in ``fn_args``) as an
    Arrow table; ``fn`` None returns the table."""
    if isinstance(src, str):
        src = pq.read_table(src, columns=columns)
    src = BlockAccessor.for_block(src).to_arrow()
    return src if fn is None else fn(src, *fn_args)


def scan_table(sf_dir: str, name: str, fn=None, *, columns=None, fn_args=()) -> list:
    """``fn`` over one test table as one plain Ray task per table file
    (``pq.read_table`` with ``columns`` pruned); returns the outputs'
    ObjectRefs in file order. A file is one block, as in `read_table`,
    so a kernel sees the same rows in the same order, minus ~0.07 s of
    streaming-executor start per scan. Callers fold the refs on the
    driver (`stages.fold.fold_partials`) or, past a budget, run their
    Dataset arm over ``rd.from_arrow_refs`` of them: nothing is
    scanned twice. Bound to its table (``functools.partial``) it is a
    `scan_blocks` source that runs the kernel in the read task."""
    path = os.path.join(sf_dir, f"{name}.parquet")
    cols = list(columns) if columns is not None else None
    return [_scan.remote(path, fn, cols, *fn_args)]


def scan_blocks(src, fn, *, fn_args=()) -> list:
    """``fn(block, *fn_args)`` as one plain task per block of ``src``
    (`block_refs`), or in the read tasks of a bound `scan_table`;
    returns the outputs' ObjectRefs in order."""
    if callable(src):
        return src(fn, fn_args=fn_args)
    return [_scan.remote(ref, fn, None, *fn_args) for ref in block_refs(src)]


def block_refs(src) -> list:
    """Arrow block refs: a list of them passes through; a Dataset is
    executed, its zero-row blocks (a shuffle's have no columns) are
    dropped and a pandas block is converted, so every ref has rows and
    the input schema."""
    if isinstance(src, list):
        return src
    return [
        ref if isinstance(bundle.schema, pa.Schema) else _scan.remote(ref, None, None)
        for bundle in src.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]


def expand_shards(paths, suffixes: tuple) -> list:
    """Shared str-or-list → sorted shard-path list: a directory expands
    to its suffix-matching files, files pass through. One copy of the
    idiom (``extract_files``, ``read_jsonl``, ``read_arrow_shards``) so
    the sorting/error contracts don't drift.

    URI entries: ``http(s)://`` passes through untouched (bare HTTP has
    no listing — pass explicit shard urls); any other scheme resolves
    its filesystem, expands directories through it, and RE-ATTACHES the
    scheme to every listed entry — the scheme is what tells the worker
    task which filesystem to open the shard through."""
    if isinstance(paths, (str, bytes)):
        paths = [paths]
    shard_list = []
    for p in map(str, paths):
        if "://" in p:
            scheme = p.split("://", 1)[0]
            if is_http(p) or p.endswith(tuple(suffixes)):
                # a suffix-matching URI is a shard FILE: pass through
                # without touching its filesystem — resolving remotely
                # per entry would cost one metadata round-trip per
                # shard on explicit 10^6-entry lists (and http can't
                # be listed at all)
                shard_list.append(p)
                continue
            from pyarrow import fs as pafs

            f, sp = _fs_from_uri(p)
            info = f.get_file_info(sp)
            if info.type == pafs.FileType.Directory:
                shard_list.extend(
                    sorted(
                        f"{scheme}://{e.path}"
                        for e in f.get_file_info(pafs.FileSelector(sp))
                        if e.path.endswith(tuple(suffixes))
                    )
                )
            else:
                shard_list.append(p)
        elif os.path.isdir(p):
            shard_list.extend(
                sorted(
                    os.path.join(p, f)
                    for f in os.listdir(p)
                    if f.endswith(tuple(suffixes))
                )
            )
        else:
            shard_list.append(p)
    return shard_list


def warc_pages_chunks(path: str, *, rows_per_chunk: int = 4096):
    """One ``.warc.gz`` archive -> pages-schema Arrow tables of at most
    ``rows_per_chunk`` rows each (the WARC decoder of the fused
    ``extract_files`` path): stream the archive record-at-a-time, keep
    200-status ``response`` records, split the HTTP payload, flush a
    table per chunk so memory stays bounded regardless of archive
    size."""
    import datetime

    import pyarrow as pa

    from ..schemas import PAGES_SCHEMA
    from ..warc import iter_warc_gz, parse_http_response

    urls, tss, htmls, texts, langs = [], [], [], [], []

    def flush():
        return pa.Table.from_arrays(
            [
                pa.array(urls, pa.string()),
                pa.array(tss, pa.timestamp("us", tz="UTC")),
                pa.array(htmls, pa.binary()),
                pa.array(texts, pa.string()),
                pa.array(langs, pa.string()),
            ],
            schema=PAGES_SCHEMA,
        )

    emitted = False
    for headers, payload in iter_warc_gz(path):
        if headers.get("WARC-Type") != "response":
            continue
        code, _http, body = parse_http_response(payload)
        if code != 200:
            continue
        urls.append(headers.get("WARC-Target-URI", ""))
        ts = datetime.datetime.strptime(
            headers["WARC-Date"], "%Y-%m-%dT%H:%M:%SZ"
        ).replace(tzinfo=datetime.timezone.utc)
        tss.append(int(ts.timestamp() * 1_000_000))
        htmls.append(body)
        texts.append("")
        langs.append(headers.get("WARC-Identified-Content-Language", ""))
        if len(urls) >= rows_per_chunk:
            yield flush()
            emitted = True
            urls, tss, htmls, texts, langs = [], [], [], [], []
    if urls or not emitted:
        yield flush()


def read_jsonl(paths, *, schema=None) -> rd.Dataset:
    """Dolma-interchange source: ``.jsonl`` / ``.jsonl.gz`` shards
    (one JSON object per line — the format Dolma, RedPajama, and most
    released text corpora ship in) -> Dataset. One shard per read
    task; parsing is pyarrow's C JSON reader over a (gzip-)stream, so
    no Python-per-line cost and bounded memory per shard. Pass
    ``schema`` (pyarrow.Schema) to pin types instead of inferring —
    always do this at corpus scale, per-shard inference can drift."""
    from pyarrow import json as pajson

    shard_list = expand_shards(paths, (".jsonl", ".jsonl.gz"))
    if not shard_list:
        raise ValueError("read_jsonl: no .jsonl[.gz] shards found")

    parse_options = (
        pajson.ParseOptions(explicit_schema=schema) if schema is not None else None
    )

    def parse(batch):
        import pyarrow as pa

        for path in batch["path"].to_pylist():
            stream = pa.input_stream(
                path, compression="gzip" if path.endswith(".gz") else None
            )
            yield pajson.read_json(stream, parse_options=parse_options)

    return rd.from_items(
        [{"path": p} for p in shard_list],
        override_num_blocks=max(1, len(shard_list)),
    ).map_batches(parse, batch_format="pyarrow")


def write_jsonl(ds, out_dir: str, *, compression: str = "gzip") -> "rd.Dataset":
    """Dolma-interchange sink: Dataset -> ``part-<hash>.jsonl[.gz]``
    shards, one per block, written atomically (tmp + rename) and named
    by CONTENT hash — a retried/resumed block rewrites the same file
    instead of duplicating it. The flip side of that idempotency: two
    DISTINCT blocks whose serialized bytes are identical collapse into
    one shard (the manifest then lists the same path twice with the
    true per-block row counts). That requires byte-identical duplicate
    blocks — impossible when rows carry any identifying column
    (doc_id/url/copy_idx, the engine's convention) — so give rows an
    id before sinking a corpus that may contain exact duplicates.
    Returns the manifest Dataset (path, rows, bytes) so callers can
    verify/record lineage. Binary columns are rejected (JSON has no
    bytes type — encode or drop them first); this is a text-corpus
    interchange sink, parquet remains the native format."""
    import gzip as _gzip
    import hashlib

    if compression not in ("gzip", None, "none"):
        raise ValueError(f"write_jsonl: compression must be gzip|none, got {compression!r}")
    gz = compression == "gzip"
    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch):
        import pyarrow as pa

        for name in batch.column_names:
            t = batch[name].type
            if pa.types.is_binary(t) or pa.types.is_large_binary(t):
                raise TypeError(
                    f"write_jsonl: column {name!r} is binary; JSON cannot "
                    "carry bytes — encode (e.g. base64) or drop it first"
                )
        df = batch.to_pandas()
        payload = df.to_json(orient="records", lines=True, force_ascii=False)
        raw = payload.encode("utf-8")
        name = f"part-{hashlib.sha1(raw).hexdigest()[:16]}.jsonl" + (
            ".gz" if gz else ""
        )
        final = os.path.join(out_dir, name)
        # unique tmp per attempt: two parallel tasks writing
        # byte-identical blocks (which content-hash naming collapses)
        # must not truncate each other's tmp mid-fsync
        import uuid as _uuid

        tmp = f"{final}.{_uuid.uuid4().hex}.tmp"
        data = (
            _gzip.compress(raw, compresslevel=6, mtime=0) if gz else raw
        )  # mtime=0: byte-deterministic archives
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
        return pa.table(
            {
                "path": pa.array([final], pa.string()),
                "rows": pa.array([batch.num_rows], pa.int64()),
                "bytes": pa.array([len(data)], pa.int64()),
            }
        )

    return ds.map_batches(
        write_block, batch_format="pyarrow", zero_copy_batch=True
    )
