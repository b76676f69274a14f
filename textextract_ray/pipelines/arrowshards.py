"""Arrow IPC shard sink/source (Feather-V2/.arrow interchange).

The Arrow IPC *file* format is the zero-parse interchange the training
ecosystem standardized on (Hugging Face ``datasets`` memory-maps
exactly these files): columnar like parquet but with no decode step —
a reader mmaps the file and gets Arrow arrays back at page-cache
speed, the right trade for data consumed many times per tokenizer/
packing experiment. This module mirrors the engine's JSONL sink/source
contract (``sources.write_jsonl``/``read_jsonl``):

* ``write_arrow_shards`` — one ``part-<hash>.arrow`` shard per block,
  written atomically (tmp + fsync + rename, reference
  src/updater.py:548,667-679) and named by CONTENT hash, so a
  retried/resumed block rewrites the same file instead of duplicating
  it (same idempotency note as write_jsonl: byte-identical duplicate
  blocks collapse — give rows an id column first). Returns the
  manifest Dataset (path, rows, bytes). Unlike JSONL, binary columns
  are first-class (Arrow carries bytes natively) — this is the
  multimodal-friendly interchange.

* ``read_arrow_shards`` — one shard per read task
  (``pa.ipc.open_file`` over each file, worker-side), so a shard
  directory streams back with per-shard parallelism and bounded
  memory, schema exactly as written (no inference anywhere).

Scale shape: both directions are shuffle-free maps; shard size is
whatever the producing pipeline's block size was (prefer the parquet
table layout, which ``table_compact`` compacts, when small-file
pressure matters more than zero-parse reads).
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa

import ray.data as rd


def write_arrow_shards(ds, out_dir: str) -> "rd.Dataset":
    """Dataset -> content-hash-named ``part-*.arrow`` IPC file shards,
    one per block, atomic; returns the (path, rows, bytes) manifest."""
    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pa.Table):
        import uuid

        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, batch.schema) as w:
            w.write_table(batch)
        # pa.Buffer speaks the buffer protocol: hash and write without
        # duplicating the whole shard payload in Python bytes
        raw = sink.getvalue()
        view = memoryview(raw)
        name = f"part-{hashlib.sha1(view).hexdigest()[:16]}.arrow"
        final = os.path.join(out_dir, name)
        # tmp name must be UNIQUE per attempt, not content-derived: two
        # parallel tasks writing byte-identical blocks (the exact case
        # content-hash naming collapses) would otherwise truncate each
        # other's tmp mid-fsync and race os.replace
        tmp = f"{final}.{uuid.uuid4().hex}.tmp"
        with open(tmp, "wb") as f:
            f.write(view)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
        return pa.table(
            {
                "path": pa.array([final], pa.string()),
                "rows": pa.array([batch.num_rows], pa.int64()),
                "bytes": pa.array([raw.size], pa.int64()),
            }
        )

    return ds.map_batches(
        write_block, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).materialize()


def read_arrow_shards(paths) -> "rd.Dataset":
    """``.arrow`` IPC file shards -> Dataset, one shard per read task.
    ``paths`` may be a directory, one file, or an explicit list."""
    from ..sources import expand_shards

    shard_list = expand_shards(paths, (".arrow",))
    if not shard_list:
        raise ValueError("read_arrow_shards: no .arrow shards found")

    def parse(batch):
        for path in batch["path"].to_pylist():
            with pa.memory_map(path, "r") as src:
                yield pa.ipc.open_file(src).read_all()

    return rd.from_items(
        [{"path": p} for p in shard_list],
        override_num_blocks=max(1, len(shard_list)),
    ).map_batches(parse, batch_format="pyarrow")
