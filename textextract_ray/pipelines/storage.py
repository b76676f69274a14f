"""Output-layout operators: table-log file helpers and key-range
clustering.

* Table-log file helpers, each a unit of work on one parquet file:
  ``_compact_group`` rewrites a group of files as one, streaming row
  groups through a ``ParquetWriter`` (bounded memory), and the Bloom
  sidecar helpers write (``_write_bloom``, ``_shard_bloom``) and probe
  (``_probe_blooms``) a per-file filter over a key column, so a merge
  opens only the files that may hold its keys.

* ``write_clustered`` / ``read_clustered`` — prune-at-the-read for
  range predicates: one budgeted hash-sample pass picks approximate
  equal-depth key boundaries, one streaming pass tags each row's range
  id and writes hive-partitioned (``_range=N/``) files, and a boundary
  manifest next to the data lets ``read_clustered`` open ONLY the
  range directories overlapping the requested key interval (plus an
  exact residual filter). The write is shuffle-FREE — rows are not
  globally sorted, just co-filed by range — which is exactly what
  footer-level pruning needs.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..functions.scalar import stable_hash64

_CLUSTER_META = "_cluster_manifest.json"


@ray.remote(num_cpus=1)
def _compact_group(paths: list[str], out_path: str, row_group_rows: int) -> dict:
    """Rewrite one group of parquet files as a single file, streaming
    row groups (bounded memory regardless of group size)."""
    schema = pq.ParquetFile(paths[0]).schema_arrow
    tmp = out_path + ".tmp"
    rows = 0
    with pq.ParquetWriter(tmp, schema) as w:
        for p in paths:
            f = pq.ParquetFile(p)
            if not f.schema_arrow.equals(schema):
                raise ValueError(
                    f"table_compact: schema mismatch between {paths[0]} "
                    f"and {p} — compaction requires a uniform schema"
                )
            for batch in f.iter_batches(batch_size=row_group_rows):
                w.write_batch(batch)
                rows += batch.num_rows
    os.replace(tmp, out_path)
    return {"path": out_path, "rows": rows, "inputs": len(paths)}


def _boundary_sample(ds, key_col: str, sample_k: int):
    """Deterministic budget-bounded key sample: every block nominates
    its bottom-``sample_k`` keys by the repo hash, the driver merges to
    the global bottom-k — a layout-invariant uniform sample of
    O(blocks·k) rows, never the corpus."""

    def nominate(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = col.drop_null()
        if not len(col):
            return pa.table({"k": col, "h": pa.array([], pa.uint64())})
        h = stable_hash64(col)
        keep = np.argsort(h, kind="stable")[:sample_k]
        return pa.table(
            {"k": col.take(pa.array(keep, pa.int64())), "h": pa.array(h[keep])}
        )

    nom = ds.map_batches(nominate, batch_format="pyarrow").to_pandas()
    if not len(nom):
        raise ValueError("write_clustered: no non-null keys to cluster on")
    nom = nom.sort_values(["h", "k"]).head(sample_k)
    return np.sort(nom["k"].to_numpy())


def write_clustered(
    ds,
    out_dir: str,
    key_col: str,
    *,
    num_ranges: int = 64,
    sample_k: int = 65536,
    boundaries: list = None,
) -> pd.DataFrame:
    """Range-cluster ``ds`` by ``key_col`` under ``out_dir``: rows land
    in hive directories ``_range=N/`` whose key intervals are recorded
    in ``_cluster_manifest.json``, so a later range read opens only the
    overlapping directories. Boundaries are approximate equal-depth
    (from the deterministic hash sample); skewed keys only skew file
    sizes, never correctness. NULL keys go to range 0 and are excluded
    by any bounded read (SQL comparison semantics).

    Shuffle-free: tagging is a per-batch ``searchsorted``; the writer
    splits each block by range id. Returns the manifest as a DataFrame
    (range id, lower bound inclusive / None for the first).

    Pass ``boundaries`` (``cluster_boundaries(other_dir)`` of an
    existing layout) to CO-PARTITION this table with another one on a
    shared key space — range i of both layouts then covers the same
    key interval, which is what ``clustered_join`` needs to join them
    with zero shuffle."""
    if boundaries is not None:
        blist = list(boundaries)
        if sorted(blist) != blist:
            raise ValueError("write_clustered: boundaries must be sorted")
    else:
        sample = _boundary_sample(ds, key_col, sample_k)
        n_b = min(num_ranges - 1, max(len(sample) - 1, 0))
        # boundary b[i] = smallest key of range i+1
        idx = (np.arange(1, n_b + 1) * len(sample)) // (n_b + 1)
        bounds = np.unique(sample[idx]) if n_b else sample[:0]
        blist = bounds.tolist()

    def tag(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = col.to_numpy(zero_copy_only=False)
        valid = ~pc.is_null(col).to_numpy(zero_copy_only=False)
        r = np.zeros(len(vals), np.int32)
        if len(blist) and valid.any():
            r[valid] = np.searchsorted(
                np.asarray(blist), vals[valid], side="right"
            ).astype(np.int32)
        return batch.append_column("_range", pa.array(r, pa.int32()))

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["_range"]
    )
    manifest = {
        "key_col": key_col,
        "bounds": [None] + [_json_key(b) for b in blist],
        "n_ranges": len(blist) + 1,
    }
    tmp = os.path.join(out_dir, _CLUSTER_META + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(tmp, os.path.join(out_dir, _CLUSTER_META))
    return pd.DataFrame(
        {"range": range(len(blist) + 1), "lower_bound": [None] + blist}
    )


def _json_key(v):
    return v.item() if isinstance(v, np.generic) else v


def read_clustered(out_dir: str, *, lo=None, hi=None):
    """Read back a clustered layout, opening ONLY the range directories
    that can contain keys in ``[lo, hi)`` per the manifest, then
    applying the exact residual filter (boundaries are approximate, the
    result is exact). ``lo``/``hi`` of None leave that side unbounded.
    Returns the pruned Dataset; ``read_clustered.last_pruning`` records
    (ranges_read, ranges_total) for tests/reports."""
    import ray.data as rd

    with open(os.path.join(out_dir, _CLUSTER_META)) as fh:
        m = json.load(fh)
    key_col = m["key_col"]
    bounds = m["bounds"]  # bounds[i] = inclusive lower bound of range i
    n = m["n_ranges"]
    keep = []
    for i in range(n):
        lower = bounds[i]  # None for range 0
        upper = bounds[i + 1] if i + 1 < n else None
        if lo is not None and upper is not None and upper <= lo:
            continue
        if hi is not None and lower is not None and lower >= hi:
            continue
        keep.append(i)
    read_clustered.last_pruning = (len(keep), n)
    dirs = [os.path.join(out_dir, f"_range={i}") for i in keep]
    paths = []
    for d in dirs:  # read_parquet expands ONE dir, not a list of dirs
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    if not paths:
        return rd.from_arrow(pa.table({key_col: pa.array([], pa.string())}))
    ds = rd.read_parquet(paths)

    def residual(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        mask = pc.is_valid(col)
        if lo is not None:
            mask = pc.and_(mask, pc.greater_equal(col, pa.scalar(lo)))
        if hi is not None:
            mask = pc.and_(mask, pc.less(col, pa.scalar(hi)))
        return batch.filter(mask)

    if lo is None and hi is None:
        return ds
    return ds.map_batches(residual, batch_format="pyarrow", zero_copy_batch=True)


def _write_bloom(path: str, key_col: str, col, fpr: float) -> dict:
    """Write the Bloom sidecar of data file ``path`` from its key
    column ``col``: the filter is sized for the column's own non-null
    key count and its bits land next to the file (tmp+rename). Returns
    ``{"k", "n_bits", "n_keys"}`` — never the filter bits."""
    from ..functions.sketch import bloom_add, bloom_create, bloom_params

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.drop_null()
    n_bits, k = bloom_params(max(len(col), 1), fpr)
    bloom = bloom_create(n_bits)
    if len(col):
        bloom_add(bloom, col, k)
    side = f"{path}.{key_col}.bloom"
    tmp = side + ".tmp"
    bloom.tofile(tmp)
    os.replace(tmp, side)
    return {"k": k, "n_bits": n_bits, "n_keys": len(col)}


@ray.remote(num_cpus=1)
def _shard_bloom(path: str, rel: str, key_col: str, fpr: float) -> dict:
    """Build one shard's Bloom sidecar from ONLY its key column, read
    back from the file. Returns manifest row metadata, so the driver
    holds O(shards) small dicts."""
    col = pq.read_table(path, columns=[key_col])[key_col]
    return {"shard": rel, **_write_bloom(path, key_col, col, fpr)}


@ray.remote(num_cpus=1)
def _probe_blooms(data_dir: str, rows: list, key_col: str, keys_ref) -> list:
    """Probe a chunk of shard blooms against the broadcast key set;
    return the shard names that MAY contain any key. Runs as a task so
    a huge layout's probe is parallel and the driver never loads a
    filter."""
    from ..functions.sketch import bloom_contains

    keys = keys_ref
    hits = []
    for r in rows:
        bloom = np.fromfile(
            os.path.join(data_dir, f"{r['shard']}.{key_col}.bloom"),
            dtype=np.uint64,
        )
        if bool(bloom_contains(bloom, keys, r["k"]).any()):
            hits.append(r["shard"])
    return hits


def cluster_boundaries(out_dir: str) -> list:
    """The boundary list of an existing clustered layout — pass to
    ``write_clustered(boundaries=...)`` to co-partition another table
    on the same key space."""
    with open(os.path.join(out_dir, _CLUSTER_META)) as fh:
        return json.load(fh)["bounds"][1:]  # drop the leading None


def _range_files(out_dir: str, rid: int) -> list:
    d = os.path.join(out_dir, f"_range={rid}")
    if not os.path.isdir(d):
        return []
    return [
        os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
    ]


def clustered_join(
    left_dir: str,
    right_dir: str,
    *,
    how: str = "inner",
    right_suffix: str = "_r",
    batch_rows: int = 65536,
):
    """ZERO-SHUFFLE equi-join of two CO-PARTITIONED clustered layouts:
    because both tables were written with the same boundary list
    (``write_clustered(boundaries=cluster_boundaries(other))``), every
    key lives in the same range id on both sides, so the join
    decomposes into one LOCAL join per range directory — the co-located
    join a 100-TB pipeline earns by reusing one partitioning key across
    stages (the brief's "pick ONE partitioning key" rule made
    executable). Data motion at join time: none; the all-to-all was
    paid once at write time, amortized across every join/read after.

    One Ray task per range pair reads only that range's files from both
    sides and joins with the Arrow hash-join kernel (exact, typed; null
    keys never match, SQL semantics). ``how`` is ``inner`` or ``left``
    (SQL left outer). Right columns that collide with left names get
    ``right_suffix``. Parallelism = number of ranges; key skew moves
    range sizes, never correctness (salt a pathological hot key
    upstream). Returns the joined
    Dataset."""
    import ray.data as rd

    if how not in ("inner", "left"):
        raise ValueError(f"clustered_join: how must be inner|left, got {how!r}")
    with open(os.path.join(left_dir, _CLUSTER_META)) as fh:
        ml = json.load(fh)
    with open(os.path.join(right_dir, _CLUSTER_META)) as fh:
        mr = json.load(fh)
    if ml["bounds"] != mr["bounds"]:
        raise ValueError(
            "clustered_join: layouts are not co-partitioned (different "
            "boundaries) — rewrite one side with "
            "write_clustered(boundaries=cluster_boundaries(other_dir))"
        )
    lkey, rkey = ml["key_col"], mr["key_col"]
    n = ml["n_ranges"]
    # right schema (footers only) for the left-outer empty-right case
    r_schema = None
    for rid in range(n):
        fs = _range_files(right_dir, rid)
        if fs:
            r_schema = pq.read_schema(fs[0])
            break
    if r_schema is None and how == "left":
        raise ValueError(
            "clustered_join: the right layout has no data files, so the "
            "left join cannot type its null right columns — join against "
            "a non-empty layout or handle the empty case upstream"
        )

    join_type = "inner" if how == "inner" else "left outer"

    def join_range(batch: pa.Table):
        for rid in batch["rid"].to_pylist():
            lf = _range_files(left_dir, rid)
            if not lf:
                continue
            lt = pa.concat_tables(pq.read_table(p) for p in lf)
            rf = _range_files(right_dir, rid)
            if rf:
                rt = pa.concat_tables(pq.read_table(p) for p in rf)
            elif how == "inner" or r_schema is None:
                continue
            else:
                rt = r_schema.empty_table()
            joined = lt.join(
                rt,
                keys=[lkey],
                right_keys=[rkey],
                join_type=join_type,
                right_suffix=right_suffix,
            )
            for off in range(0, joined.num_rows, batch_rows):
                yield joined.slice(off, batch_rows)

    return rd.from_items(
        [{"rid": i} for i in range(n)], override_num_blocks=n
    ).map_batches(join_range, batch_format="pyarrow")


_ZCLUSTER_META = "_zcluster_manifest.json"


def _col_buckets(col: pa.Array, bounds: np.ndarray) -> np.ndarray:
    """Map values to equal-depth cell ids via the column's sampled
    boundaries; nulls go to cell 0 (excluded by any bounded read's
    residual, same semantics as ``write_clustered``)."""
    vals = col.to_numpy(zero_copy_only=False)
    valid = ~pc.is_null(col).to_numpy(zero_copy_only=False)
    b = np.zeros(len(vals), np.uint64)
    if len(bounds) and valid.any():
        b[valid] = np.searchsorted(bounds, vals[valid], side="right").astype(
            np.uint64
        )
    return b


def write_clustered_multi(
    ds,
    out_dir: str,
    key_cols: list,
    *,
    num_ranges: int = 64,
    sample_k: int = 65536,
    bits: int = 8,
) -> pd.DataFrame:
    """Z-order (multi-dimension) clustered write: co-file rows so a
    range predicate on ANY of ``key_cols`` prunes — the layout answer
    when two access patterns share one table (e.g. events by user OR by
    time), where single-key clustering serves one and table-scans the
    other. This is Morton-curve interleaving (the Z-ORDER of
    Delta/Databricks; Morton 1966): each column maps to an equal-depth
    cell id in [0, 2^bits) via its own sampled boundaries, the cell
    ids' bits interleave into one z-value, and contiguous z-intervals
    become hive ``_zrange=N/`` directories. Because z-locality implies
    locality in every dimension, each directory covers a tight
    [min, max] box per column — recorded in the manifest from parquet
    FOOTER stats (no data read), so the pruned read is exact zone-map
    arithmetic.

    Shuffle-free like ``write_clustered``: one sample pass per column
    (budgeted bottom-k-by-hash nominations), one streaming tag pass
    (searchsorted + O(bits·cols) vectorized bit ops per batch), one
    partitioned write. Skewed keys only skew file sizes. Returns the
    per-range per-column bounding boxes."""
    if not (1 <= len(key_cols) <= 8) or bits * len(key_cols) > 63:
        raise ValueError(
            f"write_clustered_multi: need 1-8 key cols with bits*cols <= 63, "
            f"got {len(key_cols)} cols x {bits} bits"
        )
    if bits * len(key_cols) + (int(num_ranges) - 1).bit_length() > 64:
        raise ValueError(
            "write_clustered_multi: z * num_ranges would overflow uint64 "
            f"(bits*cols={bits * len(key_cols)} + log2(num_ranges)); lower "
            "bits or num_ranges"
        )
    k = len(key_cols)
    # one upstream execution: the sample passes (one per column) and
    # the tagged write would otherwise re-run the whole input pipeline
    # k+1 times; the blocks are about to be written anyway
    ds = ds.materialize()
    col_bounds = {}
    for col in key_cols:
        sample = _boundary_sample(ds, col, sample_k)
        n_b = min((1 << bits) - 1, max(len(sample) - 1, 0))
        idx = (np.arange(1, n_b + 1) * len(sample)) // (n_b + 1)
        col_bounds[col] = np.unique(sample[idx]) if n_b else sample[:0]
    zbits = bits * k
    shift_out = {c: i for i, c in enumerate(key_cols)}

    def tag(batch: pa.Table) -> pa.Table:
        z = np.zeros(batch.num_rows, np.uint64)
        for c in key_cols:
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            b = _col_buckets(col, col_bounds[c])
            for bit in range(bits):
                z |= ((b >> np.uint64(bit)) & np.uint64(1)) << np.uint64(
                    bit * k + shift_out[c]
                )
        r = ((z * np.uint64(num_ranges)) >> np.uint64(zbits)).astype(np.int32)
        return batch.append_column("_zrange", pa.array(r, pa.int32()))

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["_zrange"]
    )

    # per-range per-column [min, max] from footers only (parallel tasks)
    from .tablelog import _file_meta

    futs, range_of = [], []
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("_zrange="):
            continue
        d = os.path.join(out_dir, name)
        files = [
            os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
        ]
        if files:
            futs.append(_file_meta.remote(files, files, list(key_cols)))
            range_of.append(int(name.split("=", 1)[1]))
    boxes: dict = {}
    for rid, rows in zip(range_of, ray.get(futs)):
        box = {}
        for c in key_cols:
            # a box is only sound if EVERY file in the range reported
            # stats for the column; else the range is unprunable on it
            per_file = [f["stats"].get(c) for f in rows]
            if all(s is not None for s in per_file) and per_file:
                box[c] = [
                    min(s[0] for s in per_file),
                    max(s[1] for s in per_file),
                ]
        boxes[rid] = box
    manifest = {
        "key_cols": list(key_cols),
        "bits": bits,
        "num_ranges": num_ranges,
        "ranges": {str(rid): boxes[rid] for rid in sorted(boxes)},
    }
    tmp = os.path.join(out_dir, _ZCLUSTER_META + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(tmp, os.path.join(out_dir, _ZCLUSTER_META))
    return pd.DataFrame(
        [
            {"range": rid, **{f"{c}_bounds": tuple(b) for c, b in box.items()}}
            for rid, box in sorted(boxes.items())
        ]
    )


def read_clustered_multi(out_dir: str, **predicates):
    """Read back a z-clustered layout, opening ONLY the ``_zrange``
    directories whose per-column bounding box intersects every
    predicate. Predicates are ``col=(lo, hi)`` with either side None
    for unbounded (``hi`` exclusive); the exact residual filter keeps
    the result correct regardless of box looseness. Works on any
    subset of the clustering columns — the point of the z-layout.
    ``read_clustered_multi.last_pruning`` records (ranges_read, total)."""
    import ray.data as rd

    with open(os.path.join(out_dir, _ZCLUSTER_META)) as fh:
        m = json.load(fh)
    unknown = set(predicates) - set(m["key_cols"])
    if unknown:
        raise ValueError(f"read_clustered_multi: {sorted(unknown)} not in key_cols")
    keep = []
    for rid, box in m["ranges"].items():
        ok = True
        for c, (lo, hi) in predicates.items():
            if c not in box:
                continue  # no stats for this col in this range: can't prune
            if lo is not None and box[c][1] < lo:
                ok = False
                break
            if hi is not None and box[c][0] >= hi:
                ok = False
                break
        if ok:
            keep.append(int(rid))
    read_clustered_multi.last_pruning = (len(keep), len(m["ranges"]))
    paths = []
    for i in sorted(keep):
        d = os.path.join(out_dir, f"_zrange={i}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    if not paths:
        # typed empty result: take the real schema from any range file
        # (footer only) instead of inventing string-typed key columns
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("_zrange="):
                d = os.path.join(out_dir, name)
                fs = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
                if fs:
                    sch = pq.read_schema(os.path.join(d, fs[0]))
                    return rd.from_arrow(sch.empty_table())
        return rd.from_arrow(pa.table({}))
    ds = rd.read_parquet(paths)
    if not predicates:
        return ds

    def residual(batch: pa.Table) -> pa.Table:
        mask = None
        for c, (lo, hi) in predicates.items():
            col = batch[c]
            part = pc.is_valid(col)
            if lo is not None:
                part = pc.and_(part, pc.greater_equal(col, pa.scalar(lo)))
            if hi is not None:
                part = pc.and_(part, pc.less(col, pa.scalar(hi)))
            mask = part if mask is None else pc.and_(mask, part)
        return batch.filter(mask)

    return ds.map_batches(residual, batch_format="pyarrow", zero_copy_batch=True)


def read_clustered_keys(out_dir: str, keys: list):
    """Point-lookup variant of ``read_clustered``: open only the range
    directories whose interval can contain one of ``keys``, then apply
    the exact ``is_in`` residual. The lookup path for a clustered
    dimension (e.g. postings by term): k keys touch at most k range
    directories no matter how large the layout is."""
    import ray.data as rd

    with open(os.path.join(out_dir, _CLUSTER_META)) as fh:
        m = json.load(fh)
    key_col = m["key_col"]
    bounds = m["bounds"]
    n = m["n_ranges"]
    ks = sorted(set(k for k in keys if k is not None))
    keep = set()
    for k in ks:
        # range i covers [bounds[i], bounds[i+1]); bounds[0] is None
        lo_i = 0
        for i in range(n - 1, -1, -1):
            if bounds[i] is not None and k >= bounds[i]:
                lo_i = i
                break
        keep.add(lo_i)
    read_clustered_keys.last_pruning = (len(keep), n)
    paths = []
    for i in sorted(keep):
        d = os.path.join(out_dir, f"_range={i}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    if not paths or not ks:
        return rd.from_arrow(pa.table({key_col: pa.array([], pa.string())}))
    ds = rd.read_parquet(paths)
    vset = pa.array(ks)

    def residual(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[key_col], value_set=vset))

    return ds.map_batches(residual, batch_format="pyarrow", zero_copy_batch=True)
