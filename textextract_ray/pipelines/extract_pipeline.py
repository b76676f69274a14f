"""The flagship pipeline: pages → validate → extract → dedup → commit.

Lifecycle mapping (SURVEY.md §3.4): shard decode [the request queue]
→ validate/annotate (M1/M7) → extract (M4/A1), one task per shard →
exact dedup by url (D2: a driver fold of url-hash keys, losers dropped
in place; its key scan also meters the partition) → partitioned write
with manifest commit (S3/D1/S8 rename idiom) → counters (G1-G6) →
driver-side report join (J2).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..sources import block_refs, scan_blocks
from ..stages.metrics import (
    COUNTER_FIELDS,
    aggregate_counters,
    counter_totals,
    counters_report,
)


def extract_dataset(pages_ds, *, batch_size: int = 256):
    """pages Dataset -> extracted Dataset (no dedup: pipe the result
    through ``dedup_by_url`` for that).

    One task stage: each input block runs through the same per-chunk
    kernel as ``extract_files`` (``stages.extract.extract_chunk``:
    validate → annotate → extract), with the same bounded
    transient-retry remote args."""
    from ..stages.extract import TASK_RETRY_ARGS, ExtractBatch, extract_chunk

    extractor = ExtractBatch()

    def extract_block(t: pa.Table):
        yield from extract_chunk(
            t, extractor, batch_size=batch_size, where="extract_dataset input"
        )

    return pages_ds.map_batches(
        extract_block,
        batch_size=None,  # one whole block per call; the kernel slices it
        batch_format="pyarrow",
        zero_copy_batch=True,
        **TASK_RETRY_ARGS,
    )


class _CommitOverlap:
    """``run_job_versioned``'s background committer:
    ``submit(pid, fn)`` runs ``fn`` on a daemon thread and keeps its
    failure; ``drain()`` joins the thread in flight; ``join_all()``
    drains and re-raises the FIRST failure as
    ``RuntimeError("partition <pid> table commit failed")``. The job
    drains before each submit, so at most one commit overlaps the next
    partition's extraction."""

    def __init__(self):
        import threading

        self._threading = threading
        self.pending: list = []
        self.errors: dict = {}

    def submit(self, pid: int, fn) -> None:
        def run():
            try:
                fn()
            except BaseException as exc:  # surfaced on join
                self.errors[pid] = exc

        t = self._threading.Thread(target=run, daemon=True)
        t.start()
        self.pending.append(t)

    def drain(self) -> None:
        while self.pending:
            self.pending.pop(0).join()

    def join_all(self) -> None:
        self.drain()
        if self.errors:
            pid, exc = sorted(self.errors.items())[0]
            raise RuntimeError(f"partition {pid} table commit failed") from exc


# prefetch doubles per-task heap to 2× one shard buffer — cap the shard
# size it engages at (Common Crawl WARCs run ~1 GB; 256 MB × 2 keeps a
# task's buffers comfortably inside a 4 GB worker heap next to decode)
_HTTP_PREFETCH_MAX = 256 << 20


_http_size_cache: dict = {}


def _http_size_ok(url: str) -> bool:
    """ONE driver-side HEAD request on the first shard: prefetch-group
    only when Content-Length is known and under _HTTP_PREFETCH_MAX
    (crawl dumps are uniformly sized, so one probe stands for the
    list). Unknown size or probe failure → False: the one-buffer heap
    contract wins over the ~10% overlap gain. Memoized per url — the
    job loops call extract_files once per partition, and re-probing an
    unreachable-from-driver mirror would burn the 10 s timeout per
    partition while flapping the same answer."""
    if url in _http_size_cache:
        return _http_size_cache[url]
    import urllib.request

    try:
        req = urllib.request.Request(url, method="HEAD")
        with urllib.request.urlopen(req, timeout=10) as resp:
            n = resp.headers.get("Content-Length")
        ok = n is not None and int(n) <= _HTTP_PREFETCH_MAX
    except Exception:
        ok = False
    _http_size_cache[url] = ok
    return ok


def extract_files(paths, *, batch_size: int = 64, dedup: bool = True):
    """Fused read+extract: ONE task per parquet shard decodes the shard
    worker-side and extracts in the same process — the html payload
    never enters the object store.

    ``extract_dataset`` is the same extraction over a Dataset someone
    else already read (a filtered, deduped or synthesized page stream);
    this is the shape for shard files. Reading them with ``read_parquet``
    first would materialize every page block (url + html + metadata —
    the corpus' dominant bytes) into the object store between the read
    operator and the extract operator, because Ray 2.49's planner does
    not fuse ``ReadParquet`` with a downstream ``map_batches``
    (measured: two ``TaskPoolMapOperator``s in every plan). At the bench
    corpus that round-trip is 6.5 GB of plasma memcpy plus
    parquet-decode running as its own CPU-contending operator — ~20% of
    extract wall at 16 CPUs, and the first thing a 100 TB run would pay
    per node. Here the decode happens inside the extract task (exactly
    one shard per task, the same one-task-per-shard contract as
    ``read_arrow_shards``), so only the
    ~10×-smaller extracted rows are ever stored. Both entry
    points run one per-chunk kernel (``stages.extract.extract_chunk``:
    validate → annotate → ``ExtractBatch`` per ``batch_size`` slice), so
    with ``dedup=False`` output is byte-identical to
    ``extract_dataset(ray.data.read_parquet(paths))``, and with the
    default to ``dedup_by_url`` of it (pinned by
    ``test_pipeline_e2e.test_fused_matches_dataset_path``).

    Giant documents need no pool of their own: they run inside their
    shard's task, which the scheduler interleaves with the others, and
    one decode chunk bounds the heap. Shard size is the parallelism
    unit — at 100 TB keep shards at the usual 100-500 MB and the
    fan-out matches the cluster exactly as the Dataset path would.

    Shards may be ``.parquet`` OR ``.warc.gz`` (Common Crawl native —
    each archive streams record-at-a-time through the own WARC framing
    into the pages schema worker-side, same zero-plasma motion); a
    directory expands to both, and formats may mix in one list. Both
    formats decode INCREMENTALLY inside the task (parquet via
    ``ParquetFile.iter_batches``, WARC via chunked record accumulation),
    so worker heap is bounded by one decode chunk — not one shard —
    regardless of shard size.

    Shards may also be URIs (``http(s)://``, ``s3://``, any
    pyarrow/fsspec-resolvable scheme): each task opens ITS OWN shard
    stream through ``sources.open_shard`` — http(s) fetches the shard
    with the retry ladder (no Range support on bare mirrors), every
    other scheme gets a random-access filesystem handle so parquet row
    groups still decode incrementally. This is the 100-TB deployment
    shape: object-store shards keep the fused zero-plasma data motion
    instead of falling back to the read→plasma→extract round-trip
    (VERDICT r4 rank-1 item). One refinement for whole-file-fetch
    http(s) lists: shards group TWO per task with a background-thread
    prefetch of the next shard's bytes, so network wait overlaps
    extraction inside the task (measured 0.80×→0.90× of the pipelined
    Dataset path on an adversarial same-box localhost server;
    BASELINE.md round 5 has the full trade, including why fused stays
    the default — plasma holds ~10× fewer bytes at scale). Parity with
    the local-path run over ``file://``, ``local://`` and ``http://``
    shard lists is pinned in
    ``test_uri_shards.test_fused_matches_dataset_path_uri`` and
    ``test_http_source.test_fused_http_matches_local``.
    """
    import ray.data as rd

    from ..sources import expand_shards
    from ..stages.extract import TASK_RETRY_ARGS, ExtractBatch, extract_chunk

    shard_list = expand_shards(paths, (".parquet", ".warc.gz"))
    if not shard_list:
        raise ValueError("extract_files: no parquet/warc shards")
    extractor = ExtractBatch()
    decode_rows = max(batch_size, 4096)
    # http(s) shards: the whole-shard fetch (no Range support → one
    # buffered GET) would otherwise serialize with extraction inside
    # the task — the worker's slot idles on network for the full shard
    # transfer before any CPU work starts, costing ~20% wall vs the
    # pipelined Dataset path (measured, BASELINE.md round 5). Group two
    # shards per task and PREFETCH the next shard's bytes on a
    # background thread while the current one extracts: fetch overlaps
    # compute within the task, zero-plasma motion intact. Grouping
    # requires an ALL-http list (a mixed list would halve the local
    # shards' task parallelism for zero prefetch benefit — open_shard
    # on a local path is a string pass-through) and a bounded shard
    # size: while shard i extracts, shard i+1's buffer is ALSO live, so
    # per-task heap is 2× one shard. One driver-side HEAD probe of the
    # first shard checks Content-Length against _HTTP_PREFETCH_MAX
    # (crawl shards are uniformly sized); oversized or unprobeable →
    # one shard per task, the one-buffer heap contract holds. Random-
    # access schemes (file/s3-style) read incrementally per row group,
    # so their stall is already amortized — never grouped.
    from ..sources import is_http

    group2 = len(shard_list) >= 8 and all(is_http(p) for p in shard_list)
    if group2:
        group2 = _http_size_ok(shard_list[0])

    def fused(batch: pa.Table):
        import pyarrow.parquet as pq

        from ..sources import open_shard, warc_pages_chunks

        def chunks(path, src):
            # open_shard: local path string (mmap fast path) OR a
            # worker-side stream for URI shards — decode stays
            # incremental either way
            try:
                if path.endswith(".warc.gz"):
                    yield from warc_pages_chunks(src, rows_per_chunk=decode_rows)
                else:
                    for rb in pq.ParquetFile(src).iter_batches(
                        batch_size=decode_rows
                    ):
                        yield pa.Table.from_batches([rb])
            finally:
                if src is not path and hasattr(src, "close"):
                    src.close()

        paths_ = batch["path"].to_pylist()
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            nxt = pool.submit(open_shard, paths_[0]) if paths_ else None
            try:
                for i, path in enumerate(paths_):
                    src = nxt.result()
                    nxt = (
                        pool.submit(open_shard, paths_[i + 1])
                        if i + 1 < len(paths_)
                        else None
                    )
                    for t in chunks(path, src):
                        yield from extract_chunk(
                            t, extractor, batch_size=batch_size,
                            where="extract_files input",
                        )
            finally:
                # a decode error in the CURRENT shard (or Ray closing
                # the streaming generator early) must not abandon the
                # in-flight prefetch handle — over max_retries task
                # retries that accumulates open remote files/sockets
                if nxt is not None:
                    try:
                        h = nxt.result(timeout=60)
                        if hasattr(h, "close"):
                            h.close()
                    except Exception:
                        pass

    n_blocks = (len(shard_list) + 1) // 2 if group2 else len(shard_list)
    extracted = rd.from_items(
        [{"path": p} for p in shard_list],
        override_num_blocks=n_blocks,
    ).map_batches(
        fused,
        batch_format="pyarrow",
        # the shard READ I/O lives inside this task, exactly where a
        # dropped NFS/object-store connection would surface
        **TASK_RETRY_ARGS,
    )
    if dedup:
        extracted = dedup_by_url(extracted)
    return extracted


# Budgets of dedup_by_url, read at call time. The dup-row subset
# resolves on the driver while it fits both DEDUP_DRIVER_BUDGET_*;
# the key scan folds its (8-byte hash, count) partials on the driver
# while the partition's rows fit SCAN_FOLD_BUDGET_ROWS (~1.6 GB
# transient), past which the distributed coalesce+groupby arm engages
# (the 10^12-url regime).
DEDUP_DRIVER_BUDGET_ROWS = 200_000
DEDUP_DRIVER_BUDGET_BYTES = 1 << 30  # payload cap for the driver pull
SCAN_FOLD_BUDGET_ROWS = 100_000_000


def dedup_by_url(extracted_ds, *, partition_id: int | None = None):
    """Exact dedup by url — in place: no rows move but the duplicates'
    url and counter columns, and nothing is shuffled under the budgets.

    The naive shape (bucket every extracted row by url hash, shuffle
    ALL of them, first-per-url inside the bucket) moves the entire
    extracted payload (text + spans) through an all-to-all — measured
    ~25-40% of partition wall time at the soak config, and at 100 TB it
    is the whole corpus through the object store for a dup fraction of
    a few percent. Instead:

    1. materialize the extracted partition once (partition-scale, not
       corpus-scale — this is what bounds it; it also stops the
       consumers below from re-executing the extract),
    2. key scan, ONE pass: each block emits its (8-byte url hash,
       count) partials and, with ``partition_id``, its counter totals
       (``_key_partials``). While the partition's rows fit
       ``SCAN_FOLD_BUDGET_ROWS`` (its metadata row count bounds the
       partials) the scan is one plain task per block and the driver
       sums the partials; past it the scan is a Dataset stage and a
       coalesced groupby over it does, in the same execution. Either
       way no O(rows) payload reaches the driver, so a caller invoking
       this on an unpartitioned full corpus is safe,
    3. only when duplicates exist, one task per block pulls the url
       (and the counted columns) of its rows whose hash is in the
       broadcast dup-hash set, with their block positions. While those
       rows fit BOTH ``DEDUP_DRIVER_BUDGET_ROWS`` and
       ``DEDUP_DRIVER_BUDGET_BYTES`` the driver picks each url's first
       row as its winner and subtracts the losers' counters; a task
       per affected block drops its losers, every other block passes
       through untouched, and the winners stay in their own blocks —
       no extra block, no second hash pass at write time,
    4. past either budget, the unique-url rows stream-filter against
       the dup-hash set and the duplicate rows resolve in a
       url-bucketed groupby (still key-partitioned, never the full
       payload). The output is materialized, its empty blocks dropped
       (so every block has the input's schema), and the counters are
       recounted from it.

    Both arms of steps 2 and 3/4 are exact and give the same rows and
    counters. The budgets are module globals read at call time. Under
    both budgets no all-to-all runs, and one call on a materialized
    input starts no Dataset execution: the scan, the dup pull and the
    loser drop are plain tasks over the input's blocks. Past
    ``SCAN_FOLD_BUDGET_ROWS`` alone it starts one (the scan and its
    groupby).

    Returns the deduped Dataset, or with ``partition_id`` the pair
    ``(dataset, counters)``: ``counters`` is the partition's counters
    dict (``stages.metrics.counters_dict``), equal to
    ``aggregate_counters(dataset, partition_id)``.

    A hash collision routes a unique url into the dup path, where
    first-per-URL (the real string) keeps it — collisions cost a few
    extra rows in step 3, never correctness.

    The extractor is a pure function of the bytes, so duplicate urls
    carry rows identical in every content column (only the timing
    column varies) and ANY occurrence is a valid winner — content
    determinism does not depend on block arrival order. Stays in Arrow
    end-to-end (pandas would mangle the ``spans`` list column).
    """
    import ray.data as rd

    from ray.data.aggregate import Sum

    from ..functions.scalar import stable_bucket
    from ..stages.metrics import COUNTED_COLUMNS, counters_dict

    ds = extracted_ds.materialize()
    with_counters = partition_id is not None

    def combine(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["kind", "key"]).aggregate([("n", "sum")])
        return pa.table({"kind": t["kind"], "key": t["key"], "n": t["n_sum"]})

    def dups_and_counters(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.or_(pc.equal(batch["kind"], 1), pc.greater(batch["n"], 1))
        )

    refs = block_refs(ds)
    if ds.count() <= SCAN_FOLD_BUDGET_ROWS:
        # one plain task per block, no Dataset execution: the fold is
        # a few ms of work against ~0.1 s of streaming-executor start
        parts = ray.get(scan_blocks(refs, _key_partials, fn_args=(with_counters,)))
        folded = pa.concat_tables([_PARTIALS_SCHEMA.empty_table(), *parts]).to_pandas()
    else:
        # Second-level combine. The partials are pre-combined per
        # block, so their total is ~O(distinct keys) 17-byte rows — but
        # a Ray groupby over MANY tiny partial blocks pays the
        # all-to-all's fixed cost per block (measured 6.7s for 24k keys
        # in 256 blocks at the bench config, vs 1.2s for a driver
        # fold), so the partials are coalesced first: the shuffle sees
        # few large blocks instead of thousands of tiny ones.
        folded = (
            ds.map_batches(
                _key_partials, fn_args=(with_counters,), batch_format="pyarrow"
            )
            .repartition(max(32, ds.num_blocks() // 32))
            .map_batches(combine, batch_format="pyarrow")
            .groupby(["kind", "key"])
            .aggregate(Sum("n", alias_name="n"))
            .map_batches(dups_and_counters, batch_format="pyarrow")
            .to_pandas()  # O(dup keys), not O(rows)
        )
    # an all-filtered or empty fold can come back with no columns
    kind, key, n = (
        folded[c].to_numpy() if c in folded.columns else np.empty(0, np.int64)
        for c in ("kind", "key", "n")
    )
    totals = np.zeros(len(COUNTER_FIELDS), np.int64)
    np.add.at(totals, key[kind == 1], n[kind == 1])
    uh, inv = np.unique(key[kind == 0], return_inverse=True)
    tot = np.bincount(inv, weights=n[kind == 0])
    dup_h, dup_rows = uh[tot > 1], int(tot[tot > 1].sum())

    def result(out):
        return (out, counters_dict(partition_id, totals)) if with_counters else out

    if len(dup_h) == 0:
        return result(ds)
    dup_ref = ray.put(pa.array(dup_h.astype(np.uint64), pa.uint64()))
    if dup_rows <= DEDUP_DRIVER_BUDGET_ROWS:
        # the dup pull carries only what picks the winners (url) and
        # what counts the losers, plus each row's block position
        cols = ["url"] + (COUNTED_COLUMNS if with_counters else [])
        pulls = [_dup_rows.remote(r, dup_ref, cols) for r in refs]
        if sum(ray.get([p[1] for p in pulls])) <= DEDUP_DRIVER_BUDGET_BYTES:
            # rare-duplicate fast path: one Arrow pass over the pulled
            # rows (concatenated in block order) picks the losers,
            # which are dropped from their own blocks; the winners
            # stay where they are and the losers' counters come off
            # the scan's totals
            tables = ray.get([p[0] for p in pulls])
            pulled = pa.concat_tables(
                t.append_column("block", pa.array(np.full(t.num_rows, j, np.int64)))
                for j, t in enumerate(tables)
            ).combine_chunks()
            lose = np.ones(pulled.num_rows, bool)
            lose[_first_per_url(pulled)] = False
            losers = pulled.filter(pa.array(lose))
            if with_counters:
                totals -= _counter_vector(losers)
            block = losers["block"].to_numpy()
            row = losers["row"].to_numpy()
            for j in np.unique(block):
                refs[j] = _drop_rows.remote(refs[j], row[block == j])
            return result(rd.from_arrow_refs(refs))

    def keep_unique(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(_dup_mask(batch, ray.get(dup_ref))))

    def keep_dup(batch: pa.Table) -> pa.Table:
        return batch.filter(_dup_mask(batch, ray.get(dup_ref)))

    def winner_per_bucket(bucket: pa.Table) -> pa.Table:
        bucket = bucket.drop_columns(["url_bucket"])
        return bucket.take(_first_per_url(bucket))

    def bucketize(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "url_bucket",
            pa.array(stable_bucket(batch["url"], 256), pa.int32()),
        )

    # past either driver budget: a url-bucketed groupby resolves the
    # duplicate rows, and the counters are recounted from the output
    # (block_refs drops the shuffle's empty, column-less partitions,
    # which Ray's map stages pass through untouched)
    out = rd.from_arrow_refs(
        block_refs(
            ds.map_batches(keep_unique, batch_format="pyarrow").union(
                ds.map_batches(keep_dup, batch_format="pyarrow")
                .map_batches(bucketize, batch_format="pyarrow")
                .groupby("url_bucket")
                .map_groups(winner_per_bucket, batch_format="pyarrow")
            )
        )
    )
    if not with_counters:
        return out
    return out, aggregate_counters(out, partition_id)


_PARTIALS_SCHEMA = pa.schema(
    [("kind", pa.int8()), ("key", pa.int64()), ("n", pa.int64())]
)


def _counter_vector(tbl: pa.Table) -> np.ndarray:
    """``tbl``'s counter totals in ``COUNTER_FIELDS`` order."""
    t = counter_totals(tbl)
    return np.array([t[f] for f in COUNTER_FIELDS], np.int64)


def _key_partials(batch: pa.Table, with_counters: bool) -> pa.Table:
    """The key scan's partial rows of one batch. Kind 0 rows: (url
    hash, its count in the batch), so the scan ships 8-byte keys
    already deduped within the batch; with ``with_counters``, kind 1
    rows: (index into ``COUNTER_FIELDS``, the batch's total)."""
    from ..functions.scalar import stable_hash64

    uh, cnt = np.unique(stable_hash64(batch["url"]), return_counts=True)
    # int64 view of the uint64 hash (bijective; Ray's groupby/sort
    # handles int64 natively)
    keys, ns = [uh.astype(np.int64)], [cnt.astype(np.int64)]
    kind = np.zeros(len(uh), np.int8)
    if with_counters:
        keys.append(np.arange(len(COUNTER_FIELDS), dtype=np.int64))
        ns.append(_counter_vector(batch))
        kind = np.concatenate([kind, np.ones(len(COUNTER_FIELDS), np.int8)])
    return pa.table(
        [kind, np.concatenate(keys), np.concatenate(ns)], schema=_PARTIALS_SCHEMA
    )


def _first_per_url(tbl: pa.Table) -> np.ndarray:
    """Row indices of each url's first row in ``tbl``. The winner per
    url is its first row (equal urls are byte-identical up to timing);
    np.unique's stable sort makes the pick deterministic for a given
    block order."""
    urls = np.asarray(tbl["url"].to_pylist(), dtype=object)
    _, first_idx = np.unique(urls, return_index=True)
    return np.sort(first_idx)


def _dup_mask(batch: pa.Table, dup_hashes: pa.Array):
    """True for the rows whose url hash is in ``dup_hashes``."""
    from ..functions.scalar import stable_hash64

    hh = pa.array(stable_hash64(batch["url"]), pa.uint64())
    return pc.fill_null(pc.is_in(hh, value_set=dup_hashes), False)


@ray.remote(num_returns=2)
def _dup_rows(block: pa.Table, dup_hashes: pa.Array, columns: list):
    """``columns`` of the block's rows whose url hash is in
    ``dup_hashes``, with their positions in the block as ``row``; and
    that table's byte size (read before the table is pulled)."""
    rows = (
        block.select(columns)
        .append_column("row", pa.array(np.arange(block.num_rows, dtype=np.int64)))
        .filter(_dup_mask(block, dup_hashes))
    )
    return rows, rows.nbytes


@ray.remote
def _drop_rows(block: pa.Table, rows: np.ndarray) -> pa.Table:
    """The block without the rows at positions ``rows``."""
    keep = np.ones(block.num_rows, bool)
    keep[rows] = False
    return block.filter(pa.array(keep))


# Partition-sizing target for shards_per_partition=None: docs per
# partition per cluster CPU. Measured on the 96k-doc soak (BASELINE.md
# round-2): 12k docs/partition on 32 CPUs under-saturates the cluster
# (413 docs/s), 24k saturates it (662 docs/s, 86% of the
# non-checkpointed headline); ~750 docs/CPU puts a partition in the
# saturated regime while keeping resume granularity in the minutes.
PARTITION_TARGET_DOCS_PER_CPU = 750


def _auto_shards_per_partition(shard_files: list) -> int:
    """Pick shards_per_partition so one partition saturates the
    cluster: read ONLY parquet footers (row counts) of a shard sample,
    target PARTITION_TARGET_DOCS_PER_CPU × cluster CPUs docs per
    partition."""
    import pyarrow.parquet as pq

    import ray as _ray

    if not shard_files:
        raise ValueError("no input shards: shard_files is empty")
    ncpu = (
        int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    )
    from ..sources import open_shard

    sample = shard_files[:: max(1, len(shard_files) // 16)][:16]
    # URI shard lists size from footers too. Random-access schemes read
    # metadata-only through their handle (closed after the footer);
    # http has no Range support, so each sampled shard is a FULL
    # driver-side download — cap those at 2 (crawl shards are uniformly
    # sized; 16 full fetches before any extraction starts would cost
    # GBs of driver traffic for a number the median barely moves).
    from ..sources import is_http

    http_seen = 0
    rows = []
    for f in sample:
        if not f.endswith(".parquet"):
            continue  # warc shards have no footer; see fallback below
        if is_http(f):
            if http_seen >= 2:
                continue
            http_seen += 1
        src = open_shard(f)
        try:
            rows.append(pq.ParquetFile(src).metadata.num_rows)
        finally:
            if src is not f and hasattr(src, "close"):
                src.close()
    if not rows:
        # all-warc sample: row counts need a full archive scan (no
        # footer metadata), so auto-sizing has nothing cheap to read —
        # fall back to the fixed default rather than crash or scan
        return min(4, len(shard_files))
    per_shard = max(1, int(np.median(rows)))
    target = PARTITION_TARGET_DOCS_PER_CPU * ncpu
    return max(1, min(len(shard_files), round(target / per_shard)))


def run_job_versioned(
    shard_files: list,
    table_dir: str,
    *,
    shards_per_partition: int | None = 4,
    fail_at_partition: int | None = None,
    tag: str | None = None,
) -> pd.DataFrame:
    """The resumable extraction job. A partition is a contiguous group
    of input shards; each is extracted (``extract_files``), deduped by
    url and published as one atomic version of the table log at
    ``table_dir`` (first as an append, later ones as copy-on-write
    MERGE by url), so extraction output gets time travel, change feeds,
    compaction and retention GC for free — the same contract
    ``ingest_dumps_versioned`` keeps per dump.

    Resume protocol: each committing manifest is stamped
    ``note="job-part:<pid>:<sha1(shards)[:12]>:v<extractor_version>:s<spp>"``
    and carries the partition counters + lineage in the manifest
    ``meta`` (``job_part_meta`` reads them back); a rerun skips any
    partition whose (hash, version) note is already in ``table_notes``
    (notes survive retention GC). A same-pid note with a DIFFERENT
    shard hash means the caller re-partitioned the input — fail
    loudly. A same-hash note from an OLDER extractor version means the
    parser was upgraded: the partition RE-extracts and merges (latest
    capture of each url supersedes the stale-version rows; the
    pre-upgrade snapshot stays time-travelable).

    ``shards_per_partition=None`` auto-sizes partitions from parquet
    footers + cluster CPUs (``_auto_shards_per_partition``); a resume
    keeps the sizing the committed partitions recorded.
    ``fail_at_partition`` is the fault-injection hook for the
    kill-and-resume tests (FIXTURES.md §5).

    Cross-partition semantics: merge-by-url makes the table
    exactly-once per url GLOBALLY (latest partition wins), and each
    pre-merge snapshot stays time-travelable. Bloom sidecars ride
    every commit because url keys are hash-distributed (range stats
    alone would rewrite the whole table every partition).

    Returns the standard per-partition counters report."""
    # validate the release-tag NAME before any work: a bad name must
    # fail in milliseconds, not after a multi-hour corpus commits
    if tag is not None:
        from .tablelog import _tag_path

        _tag_path(table_dir, tag)
    import hashlib
    import time

    from .. import EXTRACTOR_VERSION
    from .tablelog import (
        _head_version,
        table_append,
        table_create,
        table_merge,
        table_notes,
    )

    if not shard_files:
        raise ValueError("no input shards: shard_files is empty")
    if _head_version(table_dir) < 0:
        table_create(table_dir)
    # notes survive table_expire; manifests may not — counters for
    # expired-but-noted partitions degrade to a bare row, never a rerun
    done = table_notes(table_dir)
    committed_meta = job_part_meta(table_dir)
    if shards_per_partition is None:
        # the sizing recorded by the committed job WINS over auto —
        # partition boundaries must be identical across runs or pids
        # would not line up with committed lineage (an auto recompute on a
        # different-sized cluster would shift every shard hash and make
        # the job permanently unresumable). Read it from the NOTE
        # stamps first (they survive retention GC via _notes_expired —
        # manifest meta does not), manifest meta as the fallback for
        # pre-s-field notes.
        sizes = {
            int(n.split(":")[4][1:])
            for n in done
            if isinstance(n, str)
            and n.startswith("job-part:")
            and len(n.split(":")) > 4
        } or {
            m["shards_per_partition"]
            for m in committed_meta.values()
            if m.get("shards_per_partition")
        }
        if sizes:
            shards_per_partition = sizes.pop()
        else:
            shards_per_partition = _auto_shards_per_partition(shard_files)
    partitions = [
        shard_files[i : i + shards_per_partition]
        for i in range(0, len(shard_files), shards_per_partition)
    ]
    seen_pids: dict = {}  # pid -> {hash: {versions}}
    for n in done:
        if isinstance(n, str) and n.startswith("job-part:"):
            parts = n.split(":")
            pid_i, hh_s = int(parts[1]), parts[2]
            ver = parts[3][1:] if len(parts) > 3 else ""  # pre-version notes
            seen_pids.setdefault(pid_i, {}).setdefault(hh_s, set()).add(ver)
    results: dict = {}
    commits = _CommitOverlap()

    for pid, shards in enumerate(partitions):
        hh = hashlib.sha1("\x00".join(map(str, shards)).encode()).hexdigest()[:12]
        note = (
            f"job-part:{pid}:{hh}:v{EXTRACTOR_VERSION}:s{shards_per_partition}"
        )
        prior = seen_pids.get(pid)
        if prior is not None:
            if hh not in prior:
                raise ValueError(
                    f"partition {pid} was committed from a different shard "
                    f"list (note hashes {sorted(prior)} != {hh}); "
                    "shards_per_partition changed? use the original sizing "
                    "or a fresh table"
                )
            if EXTRACTOR_VERSION in prior[hh]:
                meta = committed_meta.get(note, {})
                # manifest expired by retention GC -> full zero-counter
                # row (counters_report needs every counter column; a
                # bare dict would KeyError the report when ALL rows
                # degrade)
                from ..schemas import COUNTERS_SCHEMA

                zero = {f.name: 0 for f in COUNTERS_SCHEMA}
                results[pid] = {
                    **zero,
                    **(meta.get("counters") or {}),
                    "partition_id": pid,
                }
                continue
            # same shards, older extractor version: fall through and
            # re-extract — the merge below supersedes the stale rows
        if fail_at_partition is not None and pid >= fail_at_partition:
            commits.join_all()  # earlier commits land; THIS one does not
            raise RuntimeError(f"fault injection: killed before partition {pid}")
        # the dedup's key scan counts the partition too, so the stage
        # write is the only read of the deduped rows
        extracted, counters = dedup_by_url(
            extract_files(shards, batch_size=256, dedup=False), partition_id=pid
        )

        def commit_one(
            pid=pid, shards=shards, note=note, extracted=extracted, counters=counters
        ):
            meta = {
                "counters": counters,
                "input_shards": list(map(str, shards)),
                "shards_per_partition": shards_per_partition,
                "extractor_version": EXTRACTOR_VERSION,
            }
            # transient fs errors (OSError) retry, 3 attempts with
            # backoff; anything else fails fast through _CommitOverlap.
            # An error raised after the manifest was published must not
            # publish the partition twice, so a retry first looks for
            # the partition's note.
            for attempt in range(3):
                if attempt and note in table_notes(table_dir):
                    break
                meta["commit_retries"] = attempt
                try:
                    if _head_version(table_dir) == 0:
                        table_append(
                            table_dir, extracted, stats_cols=["url"],
                            note=note, bloom_key="url", meta=meta,
                        )
                    else:
                        table_merge(
                            table_dir, extracted, "url", stats_cols=["url"],
                            note=note, bloom_key="url", meta=meta,
                        )
                    break
                except OSError:
                    if attempt == 2:
                        raise
                    time.sleep(0.3 * (attempt + 1))
            results[pid] = counters

        # bloom build + stage + commit run OVERLAPPED with the
        # next partition's extraction (one deep; measured ~10% of soak
        # wall serialized otherwise, BASELINE.md round 5). The PREVIOUS
        # committer is drained BEFORE this one starts — the overlap is
        # commit N under extraction N+1, never two committers at once,
        # so the head==0 append-vs-merge decision inside the thread is
        # race-free (two live committers could both see head 0 and both
        # APPEND, silently dropping the cross-partition url merge).
        commits.drain()
        if commits.errors:
            commits.join_all()
        commits.submit(pid, commit_one)
    commits.join_all()
    if tag is not None:
        # release stamping: pin the COMPLETED run's table version as a
        # named snapshot (survives retention GC; `read_table_at(tag=)`
        # is then "the exact corpus this run produced"). force=True:
        # re-running the job under the same release name re-points the
        # tag to the rerun's head, matching the job's own idempotent
        # resume semantics.
        from .tablelog import table_tag

        table_tag(table_dir, tag, force=True)
    return counters_report([results[pid] for pid in sorted(results)])


def job_part_meta(table_dir: str) -> dict:
    """``{note: meta}`` of every retained ``job-part:`` manifest of a
    ``run_job_versioned`` table, in version order: each partition's
    counters, input shards, sizing, extractor version and commit
    retries. The job's resume and the CLI ``report`` read it."""
    from .tablelog import _read_manifest, table_history

    hist = table_history(table_dir)
    return {
        n: _read_manifest(table_dir, int(v)).get("meta") or {}
        for v, n in zip(hist["version"], hist["note"])
        if isinstance(n, str) and n.startswith("job-part:")
    }


# --- SQL-checkable extraction queries over the documents table ---------------

def _documents_as_pages(sf_dir: str):
    """documents → synthetic boilerplate-laden pages (deterministic;
    main content == document text, so extraction is SQL-checkable)."""
    from ..datagen import documents_to_pages
    from ..sources import read_table

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return docs.map_batches(documents_to_pages, batch_format="pyarrow")


def extract_documents(sf_dir: str):
    """Flagship extraction over pages synthesized from documents:
    read → validate → annotate → extract. The DuckDB oracle asserts
    extracted_text == the original document text, byte-for-byte —
    the north_rule invariant expressed as SQL."""
    extracted = extract_dataset(_documents_as_pages(sf_dir))
    df = extracted.to_pandas()[["url", "extracted_text", "status"]]
    return df.sort_values("url").reset_index(drop=True)


def extract_localized(sf_dir: str):
    """Extraction with per-language model dispatch: each row routes to
    the language model keyed by its ``lang`` column (models compiled
    once per actor — SURVEY §7 step 5, reference src/ocr.py:196-204).
    Output is SQL-checkable: extracted_text == documents.text plus the
    per-lang stopword-model counts."""
    from ..stages.extract import (
        LangDispatchExtract,
        _auto_pool_size,
        apply_transient_retry_policy,
    )

    apply_transient_retry_policy()
    out = _documents_as_pages(sf_dir).map_batches(
        LangDispatchExtract,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=128,
        concurrency=_auto_pool_size(),
    )
    df = out.to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def extract_pdf_documents(sf_dir: str):
    """PDF-arm of the flagship extraction: documents -> real
    deterministic PDFs -> the PdfExtract actor pool (strict: any parse
    failure raises instead of hiding in a status row). The DuckDB
    oracle asserts extracted_text == the original document text —
    the north_rule's "PDF/layout parse" requirement, SQL-checked."""
    from ..datagen import documents_to_pdf_pages
    from ..sources import read_table
    from ..stages.extract import (
        PdfExtract,
        _auto_pool_size,
        apply_transient_retry_policy,
    )

    apply_transient_retry_policy()
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    pages = docs.map_batches(documents_to_pdf_pages, batch_format="pyarrow")
    extracted = pages.map_batches(
        PdfExtract,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=64,
        concurrency=_auto_pool_size(),
        fn_constructor_kwargs={"strict": True},
    )
    df = extracted.to_pandas()[["url", "extracted_text", "status"]]
    return df.sort_values("url").reset_index(drop=True)


def extract_spans(sf_dir: str):
    """Span offsets of the extraction (first/only span per synthesized
    page): start, end in characters of the extracted text."""
    extracted = extract_dataset(_documents_as_pages(sf_dir))

    def flatten(batch: pa.Table) -> pa.Table:
        # vectorized 1->N explode: list_flatten yields every span struct,
        # list_parent_indices maps each back to its row's url; no
        # Python row loop.
        spans = batch["spans"]
        structs = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans)
        return pa.table(
            {
                "url": pc.take(batch["url"], parents),
                "span_start": pc.cast(pc.struct_field(structs, "start"), pa.int64()),
                "span_end": pc.cast(pc.struct_field(structs, "end"), pa.int64()),
                "span_kind": pc.cast(pc.struct_field(structs, "kind"), pa.string()),
            }
        )

    out = extracted.map_batches(flatten, batch_format="pyarrow")
    return out.to_pandas().sort_values("url").reset_index(drop=True)


# --- url-hash input layout (the 100-TB dedup answer) -------------------------

def partition_pages_by_url(shard_files: list, out_dir: str, *, num_buckets: int = 16):
    """One-time layout pass: rewrite pages shards into url-hash buckets
    (``bucket-{b:05d}.parquet``), the crawl-store layout the north_rule
    assumes ("repartition by url-hash").

    After this pass every occurrence of a url lives in exactly one
    bucket, so each ``run_job_versioned(..., shards_per_partition=1)``
    partition's local dedup is globally exact and its merge replaces
    no earlier row — no corpus-wide shuffle. The layout shuffle moves raw pages
    once; at 100 TB it is amortized across every downstream run (and
    is exactly the shuffle a crawl ingest already performs).
    """
    import os

    from ..functions.scalar import stable_bucket

    os.makedirs(out_dir, exist_ok=True)
    ds = ray.data.read_parquet(shard_files)

    def bucketize(batch: pa.Table) -> pa.Table:
        b = stable_bucket(batch["url"], num_buckets)
        return batch.append_column("url_bucket", pa.array(b, pa.int32()))

    def write_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        bid = group["url_bucket"][0].as_py()
        table = group.drop_columns(["url_bucket"])
        # deterministic row order within the bucket (url is unique per
        # row up to exact duplicates; warc_ts tie-breaks)
        import pyarrow.compute as pc

        order = pc.sort_indices(
            table, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")]
        )
        pq.write_table(
            table.take(order),
            os.path.join(out_dir, f"bucket-{bid:05d}.parquet"),
            compression="zstd",
        )
        return pa.table({"bucket": pa.array([bid], pa.int32()),
                         "rows": pa.array([table.num_rows], pa.int64())})

    stats = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("url_bucket")
        .map_groups(write_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    return sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir) if f.endswith(".parquet")
    ), stats
