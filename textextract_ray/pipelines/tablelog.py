"""Versioned table: a snapshot commit log over immutable parquet files.

The missing storage layer for a RECURRING 100-TB pipeline: every round
of ingest/extract/dedup produces a new corpus state, and downstream
consumers (training runs, eval sets, dashboards) need (a) an atomic
notion of "the table as of commit N" that a half-finished writer can
never corrupt, (b) time travel — rerun last week's tokenize over last
week's corpus exactly, (c) safe concurrent appends, and (d) file-level
pruning from manifest statistics. This is the Iceberg/Delta snapshot
model (Armbrust et al., VLDB 2020, "Delta Lake: High-Performance ACID
Table Storage over Cloud Object Stores") rebuilt on the engine's own
primitives — tmp+rename commits (state/checkpoint.py, the reference's
download-then-rename idiom, reference src/updater.py:548,667-679).

Layout under ``table_dir/``::

    data/<token>/part-*.parquet     immutable; never rewritten in place
    _log/v00000007.json             manifest: the COMPLETE file list of
                                    version 7 (+ per-file rows/stats)

There is deliberately NO separate HEAD pointer: the head is the
highest manifest in ``_log/``, and a manifest becomes visible with one
atomic ``os.link`` (exclusive create — the loser of a race gets
``CommitConflict``, never a torn table). Manifests are O(files)
metadata; the data plane is untouched by commits, so a commit costs
the same at 100 TB as at 1 MB.

Scale shape: reads open exactly the files a manifest (optionally
stats-pruned) lists — no directory walking of the data plane;
appends write only their own new files; ``table_expire`` reclaims
space with driver-side set arithmetic over manifests. The one
corpus-scale object is the parquet data itself.
"""

from __future__ import annotations

import json
import os
import re
import time
import uuid

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

_LOG = "_log"
_DATA = "data"


class CommitConflict(RuntimeError):
    """Another writer committed the same version first; retry from the
    new head (``table_append`` does this automatically)."""


def _manifest_name(version: int) -> str:
    return f"v{version:08d}.json"


def _log_dir(table_dir: str) -> str:
    # every table-log path goes through here (the head lookup first),
    # so a URI is refused before anything is written: os.* would treat
    # "s3://b/t" as the relative directory ./s3:/b/t
    if re.match(r"[A-Za-z][A-Za-z0-9+.-]*://", str(table_dir)):
        raise ValueError(
            f"tablelog: {table_dir!r} is a URI; the table log supports local "
            "paths only (object-store tables are ROADMAP direction 4)"
        )
    return os.path.join(table_dir, _LOG)


def _head_version(table_dir: str) -> int:
    """Highest committed version, or -1 for a non-table dir."""
    try:
        names = os.listdir(_log_dir(table_dir))
    except FileNotFoundError:
        return -1
    vs = [
        int(n[1:9])
        for n in names
        if n.startswith("v") and n.endswith(".json") and n[1:9].isdigit()
    ]
    return max(vs) if vs else -1


def _read_manifest(table_dir: str, version: int) -> dict:
    path = os.path.join(_log_dir(table_dir), _manifest_name(version))
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"tablelog: version {version} not found under {table_dir} "
            "(expired or never committed)"
        ) from None


def _meta_row(md, rel: str, stats_cols) -> dict:
    """The manifest row of one parquet file from its footer ``md``:
    row count, columns, Arrow types and per-column [min, max] folded
    across row groups."""
    stats: dict = {}
    sch = md.schema.to_arrow_schema()
    names = sch.names
    for col in stats_cols:
        if col not in names:
            continue
        ci = names.index(col)
        lo = hi = None
        ok = True
        for rg in range(md.num_row_groups):
            s = md.row_group(rg).column(ci).statistics
            if s is None or not s.has_min_max:
                ok = False
                break
            lo = s.min if lo is None else min(lo, s.min)
            hi = s.max if hi is None else max(hi, s.max)
        if ok and lo is not None:
            stats[col] = [_plain(lo), _plain(hi)]
    return {
        "path": rel,
        "rows": md.num_rows,
        "cols": list(names),
        # per-column Arrow types: lets _check_schema reject
        # name-matching-but-type-mismatched appends AT COMMIT, not
        # later as a _compact_group/union failure far from the
        # offending writer (ADVICE r4)
        "types": {n: str(sch.field(n).type) for n in names},
        "stats": stats,
    }


@ray.remote(num_cpus=1)
def _file_meta(paths: list, rels: list, stats_cols: list) -> list:
    """Footer-only metadata for a chunk of freshly written files. Runs
    as a task so a large commit's footer scan is parallel; the driver
    holds O(files) small dicts, never data."""
    return [
        _meta_row(pq.read_metadata(path), rel, stats_cols)
        for path, rel in zip(paths, rels)
    ]


def _plain(v):
    if isinstance(v, bytes):
        return v.decode("utf-8", "replace")
    return v.item() if hasattr(v, "item") else v


# Bloom sidecars of table files: the pruning index for HASH-distributed
# merge/delete keys (e.g. urls), where [min, max] stats cover the whole
# key space and prune nothing. fpr 1e-6 (≈4.3 bytes/key), not the usual
# 1e-3: the probe compounds over the WHOLE upsert/takedown key set per
# file (P[file false-hits] = 1-(1-fpr)^n_keys), so a 10k-key merge at
# 1e-3 would false-rewrite nearly every file.
_BLOOM_FPR = 1e-6


def _bloom_entry(rel: str, bloom_key: str, k: int) -> dict:
    return {"key": bloom_key, "path": f"{rel}.{bloom_key}.bloom", "k": k}


def _attach_blooms(table_dir: str, rows: list, paths: list, bloom_key: str) -> None:
    """Build one Bloom sidecar per existing file over ``bloom_key``
    (the storage layer's per-shard builder reads the key column back)
    and record it in each manifest row."""
    from .storage import _shard_bloom

    metas = ray.get(
        [
            _shard_bloom.remote(p, r["path"], bloom_key, _BLOOM_FPR)
            for p, r in zip(paths, rows)
        ]
    )
    for r, m in zip(rows, metas):
        r["bloom"] = _bloom_entry(r["path"], bloom_key, m["k"])


@ray.remote(num_cpus=1)
def _stage_block(block, path: str, rel: str, stats_cols: list, bloom_key):
    """Write one block as the parquet file ``path`` and return its
    manifest row (the footer ``_file_meta`` would read back), with the
    Bloom sidecar over ``bloom_key`` built from the in-memory column.
    A zero-row block (which may also have no columns) writes nothing
    and returns None."""
    from ray.data.block import BlockAccessor

    from .storage import _write_bloom

    t = BlockAccessor.for_block(block).to_arrow()
    if t.num_rows == 0:
        return None
    footer: list = []
    pq.write_table(t, path, metadata_collector=footer)
    row = _meta_row(footer[0], rel, stats_cols)
    if bloom_key is not None:
        m = _write_bloom(path, bloom_key, t[bloom_key], _BLOOM_FPR)
        row["bloom"] = _bloom_entry(rel, bloom_key, m["k"])
    return row


def _stage_files(table_dir: str, ds, stats_cols, token: str, bloom_key=None) -> list:
    """Write ``ds`` under ``data/<token>/`` and return manifest rows.
    The stage dir is invisible to readers until a manifest referencing
    it commits, so a crashed writer leaves garbage, never corruption
    (``table_expire`` sweeps unreferenced stage dirs).

    One plain task per block (``_stage_block``) writes that block's
    file, its footer row and its Bloom sidecar — no Ray Data write
    execution and no second read of the files. The blocks come from
    ``iter_internal_ref_bundles``, so a lazy ``ds`` streams through
    while at most two stage tasks per cluster CPU are in flight; a
    materialized one starts no Dataset execution at all. Zero-row
    blocks stage no file, so an empty ``ds`` commits an empty file
    list."""
    stage = os.path.join(table_dir, _DATA, token)
    os.makedirs(stage, exist_ok=True)
    cap = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    stats_cols = list(stats_cols)
    pending: dict = {}  # in-flight task ref -> block index
    rows: dict = {}

    def settle(refs: list) -> None:
        for ref, row in zip(refs, ray.get(refs)):
            rows[pending.pop(ref)] = row

    i = 0
    for bundle in ds.iter_internal_ref_bundles():
        for block, _ in bundle.blocks:
            name = f"part-{i:06d}.parquet"
            ref = _stage_block.remote(
                block, os.path.join(stage, name), f"{_DATA}/{token}/{name}",
                stats_cols, bloom_key,
            )
            pending[ref] = i
            i += 1
            if len(pending) == cap:
                settle(ray.wait(list(pending), num_returns=1)[0])
    settle(list(pending))
    return [rows[j] for j in sorted(rows) if rows[j] is not None]


def _commit(table_dir: str, version: int, manifest: dict) -> None:
    """Atomically publish ``manifest`` as ``version``: write a tmp file
    then ``os.link`` to the final name — exclusive create, so exactly
    one writer wins a contended version and the loser sees
    ``CommitConflict`` with the table untouched."""
    log = _log_dir(table_dir)
    os.makedirs(log, exist_ok=True)
    # commit wall time, for timestamp time travel (read_table_at
    # as_of=) and history; legacy manifests without it fall back to
    # file mtime
    manifest.setdefault("ts", time.time())
    final = os.path.join(log, _manifest_name(version))
    tmp = final + f".tmp-{uuid.uuid4().hex[:8]}"
    try:
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        try:
            os.unlink(tmp)  # never leave a stray tmp in _log
        except OSError:
            pass
        raise
    try:
        os.link(tmp, final)
    except FileExistsError:
        raise CommitConflict(
            f"tablelog: version {version} was committed concurrently"
        ) from None
    finally:
        os.unlink(tmp)


def _norm_type(t: str) -> str:
    """Normalize representation-equivalent Arrow type spellings before
    comparing: large_string/string, large_binary/binary and
    large_list/list differ only in offset width — parquet round-trips
    and Ray block building flip between them freely, and reads union
    them fine. Only SEMANTIC mismatches (string vs int64, int32 vs
    int64) should fail an append."""
    return t.replace("large_string", "string").replace(
        "large_binary", "binary"
    ).replace("large_list<", "list<")


def _check_schema(new_rows: list, old_files: list, defaults: dict = None) -> None:
    if not new_rows or not old_files:
        return
    new_cols = set(new_rows[0]["cols"])
    new_types = new_rows[0].get("types") or {}
    # a post-evolution table legitimately holds several physical
    # signatures; an append is valid if its NAMES match ANY existing
    # file's signature (legacy-shaped) or any signature plus the
    # evolved (defaulted) columns — order-independent, so compaction
    # regrouping can never invalidate previously-valid append shapes.
    # TYPES are checked against the WHOLE TABLE's folded per-column
    # type set, not just the name-matching file: a legacy file lacking
    # an evolved column would otherwise name-match first and let a
    # type-mismatched evolved column commit (review r5 pass-3 repro:
    # append lang:int64 after a lang:string file — the legacy signature
    # matched, lang was never type-checked, and table_compact exploded
    # exactly as this guard's comment claims it prevents). Defaulted
    # columns with no physical occurrence check against the default
    # value's inferred Arrow type (what the read path will fill).
    dset = set(defaults or {})
    name_ok = False
    for f in old_files:
        cols = f.get("cols")
        if cols is None:
            return  # pre-metadata manifest: nothing to check against
        cset = set(cols)
        if new_cols == cset or new_cols == (cset | dset):
            name_ok = True
            break
    if not name_ok:
        sigs = sorted({tuple(sorted(f["cols"])) for f in old_files})
        raise ValueError(
            f"tablelog: append schema {sorted(new_cols)} matches no table "
            f"schema (file signatures {sigs}, evolved columns {sorted(dset)})"
        )
    if not new_types:
        return
    allowed: dict = {}
    for f in old_files:
        for c, t in (f.get("types") or {}).items():
            allowed.setdefault(c, set()).add(_norm_type(t))
    for c, dval in (defaults or {}).items():
        if c not in allowed and dval is not None:
            allowed[c] = {_norm_type(str(pa.scalar(dval).type))}
    type_err = {
        c: (sorted(allowed[c]), new_types[c])
        for c in new_cols & set(allowed) & set(new_types)
        if _norm_type(new_types[c]) not in allowed[c]
    }
    if type_err:
        raise ValueError(
            "tablelog: append column types mismatch the table's "
            f"(column: (table types, append type)) = {type_err}; cast "
            "the append side before committing"
        )


def table_create(table_dir: str) -> int:
    """Initialize an empty table (version 0, no files). Idempotent-safe:
    re-creating an existing table raises instead of clobbering."""
    if _head_version(table_dir) >= 0:
        raise ValueError(f"tablelog: {table_dir} is already a table")
    os.makedirs(os.path.join(table_dir, _DATA), exist_ok=True)
    _commit(
        table_dir,
        0,
        {"version": 0, "parent": None, "operation": "create", "files": []},
    )
    return 0


def _write_version(
    table_dir: str,
    ds,
    operation: str,
    stats_cols,
    token,
    retries: int,
    note=None,
    bloom_key=None,
    expected_head=None,
    meta=None,
) -> int:
    # validate BEFORE staging: a typo'd path must fail fast, not after
    # minutes of parquet writes into an arbitrary directory
    if _head_version(table_dir) < 0:
        raise ValueError(f"tablelog: {table_dir} is not a table (table_create first)")
    token = token or uuid.uuid4().hex[:12]
    rows = _stage_files(table_dir, ds, stats_cols or (), token, bloom_key)
    for _ in range(max(1, retries)):
        head = _head_version(table_dir)
        if expected_head is not None and head != expected_head:
            # compare-and-swap callers computed their
            # content FROM a specific head — blind retry would publish
            # a stale read-modify-write; surface the conflict instead
            raise CommitConflict(
                f"tablelog: head moved {expected_head} -> {head} under a "
                "read-modify-write commit"
            )
        parent = _read_manifest(table_dir, head)
        defaults = parent.get("defaults") or {}
        _check_schema(rows, parent["files"], defaults)
        files = rows if operation == "overwrite" else parent["files"] + rows
        man = {
            "version": head + 1,
            "parent": head,
            "operation": operation,
            "note": note,
            "files": files,
        }
        if meta is not None:
            man["meta"] = meta  # caller-opaque JSON (e.g. job counters)
        # an overwrite resets the logical schema to the new data alone
        if defaults and operation != "overwrite":
            man["defaults"] = defaults
        try:
            _commit(table_dir, head + 1, man)
            return head + 1
        except CommitConflict:
            continue  # staged data is version-independent: re-read head, retry
    raise CommitConflict(
        f"tablelog: lost {retries} commit races on {table_dir}; giving up"
    )


_EXPIRE_LOCK = "_expire.lock"
# a lock older than this is a crashed expire: it will never delete
# anything, so writers ignore it and a new expire steals it. An expire
# whose DESTRUCTIVE phase (unlinks only — planning happens before the
# final fence) outlives this bound while a restore races it is the one
# residual hazard, documented on table_restore.
EXPIRE_LOCK_STALE_SECONDS = 3600.0


def _expire_lock_path(table_dir: str) -> str:
    return os.path.join(_log_dir(table_dir), _EXPIRE_LOCK)


def _live_expire_lock(table_dir: str) -> bool:
    try:
        age = time.time() - os.path.getmtime(_expire_lock_path(table_dir))
    except OSError:
        return False
    return age < EXPIRE_LOCK_STALE_SECONDS


def _expire_busy(table_dir: str) -> RuntimeError:
    return RuntimeError(f"tablelog: another table_expire is running on {table_dir}")


def _steal_stale_expire_lock(table_dir: str, lock: str) -> None:
    """Move a crashed holder's expire lock aside, or raise if it is live.

    The staleness check and the removal act on one inode: the lock is
    renamed to a unique tombstone first and the TOMBSTONE is checked.
    Checking the path and then unlinking it would let a co-stealer
    replace the stale lock with its own fresh one in between, and the
    unlink would delete that live lock. A fresh tombstone is such a
    co-stealer's lock: it is linked back and this caller backs off.
    """
    if _live_expire_lock(table_dir):
        raise _expire_busy(table_dir)
    tomb = lock + f".stale-{uuid.uuid4().hex[:8]}"
    try:
        os.rename(lock, tomb)
    except FileNotFoundError:  # a co-stealer moved it first
        raise _expire_busy(table_dir) from None
    try:
        if time.time() - os.path.getmtime(tomb) < EXPIRE_LOCK_STALE_SECONDS:
            try:
                os.link(tomb, lock)
            except FileExistsError:  # a third expire took the free path
                pass
            raise _expire_busy(table_dir)
    finally:
        os.unlink(tomb)


def _wait_expire_lock(table_dir: str) -> None:
    """Block until no LIVE expire lock remains (released, or aged into
    staleness — a crashed holder cannot delete anything)."""
    while _live_expire_lock(table_dir):
        time.sleep(0.05)


def _version_files_missing(table_dir: str, files: list) -> list:
    """Paths (data + bloom sidecars) of ``files`` that are gone."""
    missing = []
    for f in files:
        paths = [f["path"]]
        if f.get("bloom"):
            paths.append(f["bloom"]["path"])
        for p in paths:
            if not os.path.exists(os.path.join(table_dir, p)):
                missing.append(p)
    return missing


def _commit_metadata_with_retry(table_dir: str, build_man, retries: int) -> int:
    """Optimistic METADATA-ONLY commit shared by restore/add_column:
    ``build_man(head, parent_manifest)`` returns (or raises from) the
    manifest dict for head+1; on a lost commit race the head and
    parent re-read and the build re-runs."""
    for _ in range(max(1, retries)):
        h = _head_version(table_dir)
        parent = _read_manifest(table_dir, h)
        man = build_man(h, parent)
        try:
            _commit(table_dir, h + 1, man)
            return h + 1
        except CommitConflict:
            continue
    raise CommitConflict(
        f"tablelog: lost {retries} commit races on {table_dir}; giving up"
    )


def table_restore(
    table_dir: str, version: int = None, *, tag: str = None,
    retries: int = 5, note=None,
) -> int:
    """Roll the table's LOGICAL content back to an earlier version (or
    pinned tag) as a NEW commit — the undo for a bad merge, a botched
    recrawl ingest, or an over-broad takedown. The source snapshot's
    files carry BY REFERENCE (zero data movement at any table size)
    and its defaults map comes along, so the restored head has exactly
    that snapshot's content and schema. History is preserved: the
    versions being rolled past stay time-travelable until
    ``table_expire`` reclaims them."""
    version = _resolve_tag(table_dir, version, tag)
    if version is None:
        raise ValueError("tablelog: table_restore needs version= or tag=")
    src = _read_manifest(table_dir, int(version))

    def build_man(head, _parent):
        man = {
            "version": head + 1,
            "parent": head,
            "operation": "restore",
            "note": note or f"restore:v{int(version)}",
            "files": src["files"],
        }
        if src.get("defaults"):
            man["defaults"] = src["defaults"]
        return man

    # restore-vs-expire fence: restore is the one writer that can
    # re-reference an EXPIRING version's files. Three coordinated
    # mechanisms close the race:
    #   1. refuse to start while an expire holds its destructive-phase
    #      lock (stale locks — crashed holders — are ignored);
    #   2. table_expire replans over any restore manifest that landed
    #      before its final pre-unlink fence read;
    #   3. a restore landing AFTER that read waits out the lock below,
    #      then verifies every referenced path (data + bloom) and
    #      fails LOUDLY if the sweep won — never a silent head onto
    #      deleted data. Residual: an expire whose unlink phase
    #      outlives EXPIRE_LOCK_STALE_SECONDS under a concurrent
    #      restore — don't run retention against a table while
    #      restoring decade-old snapshots.
    if _live_expire_lock(table_dir):
        raise RuntimeError(
            f"tablelog: table_expire in progress on {table_dir} — "
            "retry the restore after it completes"
        )
    v_new = _commit_metadata_with_retry(table_dir, build_man, retries)
    _wait_expire_lock(table_dir)
    missing = _version_files_missing(table_dir, src["files"])
    if missing:
        raise RuntimeError(
            f"tablelog: restore of v{int(version)} raced a concurrent "
            f"table_expire — {len(missing)} referenced file(s) were "
            f"deleted (head v{v_new} is damaged; restore an intact "
            "version, e.g. the previous head, to repair)"
        )
    return v_new


def table_append(
    table_dir: str,
    ds,
    *,
    stats_cols=(),
    token=None,
    retries: int = 5,
    note=None,
    bloom_key=None,
    meta=None,
) -> int:
    """Append ``ds`` as a new version: new files join the parent's file
    list; nothing is rewritten. Optimistic concurrency — a lost commit
    race re-reads the head and retries (the staged files don't depend
    on the parent), so concurrent appenders serialize without locks.
    ``stats_cols`` adds per-file [min, max] to the manifest for
    ``read_table_at`` pruning; ``note`` stamps the manifest with a
    caller label (e.g. a dump id) surfaced by ``table_history`` — the
    idempotence hook for incremental ingest. ``bloom_key`` builds a
    per-file Bloom sidecar over that column, recorded in the manifest —
    the merge/delete pruning index for HASH-distributed keys (urls),
    where [min, max] stats span everything and prune nothing. Returns
    the committed version."""
    return _write_version(
        table_dir, ds, "append", stats_cols, token, retries, note, bloom_key,
        meta=meta,
    )


def table_overwrite(
    table_dir: str,
    ds,
    *,
    stats_cols=(),
    token=None,
    retries: int = 5,
    note=None,
    bloom_key=None,
    expected_head=None,
) -> int:
    """Replace the table's LOGICAL content with ``ds`` as a new version.
    Old versions' files stay on disk, so reads at earlier versions
    still work until ``table_expire`` reclaims them. ``expected_head``
    turns the commit into a compare-and-swap: it only publishes if the
    head is still that version (CommitConflict otherwise) — the hook
    for read-modify-write callers."""
    return _write_version(
        table_dir, ds, "overwrite", stats_cols, token, retries, note, bloom_key,
        expected_head,
    )


# --- named tags (pinned snapshots) ------------------------------------------

def _tag_path(table_dir: str, name: str) -> str:
    # the "tag-" filename prefix keeps tags disjoint from manifests,
    # so any filesystem-safe name works (incl. "v1.0")
    if not name or "/" in name or "\\" in name or name.startswith("."):
        raise ValueError(f"tablelog: invalid tag name {name!r}")
    return os.path.join(_log_dir(table_dir), f"tag-{name}.json")


def table_tag(table_dir: str, name: str, version: int = None, *, force: bool = False) -> int:
    """Pin ``name`` to ``version`` (default: current head) — a named
    immutable snapshot in the training-data release workflow
    ("dataset-v1.0 == table version 7"). Tagged versions survive
    ``table_expire`` regardless of ``keep_last``: their manifests are
    retained and their data files stay reachable, so a pinned release
    stays time-travelable forever. One tag = one exclusively-created
    file (no read-modify-write race between concurrent taggers);
    ``force`` atomically re-points an existing tag."""
    head = _head_version(table_dir)
    if head < 0:
        raise ValueError(f"tablelog: {table_dir} is not a table")
    v = head if version is None else int(version)
    # don't race an expire's destructive phase: tags created mid-sweep
    # are invisible to its (already finished) fence reads
    _wait_expire_lock(table_dir)
    manifest = os.path.join(_log_dir(table_dir), _manifest_name(v))
    if not os.path.exists(manifest):
        raise ValueError(
            f"tablelog: cannot tag version {v} — no manifest (expired or never committed)"
        )
    path = _tag_path(table_dir, name)
    tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
    prior = None  # force path: the pin to RESTORE if the fence trips
    try:
        with open(tmp, "w") as fh:
            json.dump({"version": v}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        if force:
            try:
                with open(path) as fh:
                    prior = json.load(fh)
            except FileNotFoundError:
                pass
            os.replace(tmp, path)
        else:
            # exclusive claim: link fails if the tag already exists
            try:
                os.link(tmp, path)
            except FileExistsError:
                raise ValueError(
                    f"tablelog: tag {name!r} exists (use force=True to re-point)"
                ) from None
            finally:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # tag-vs-expire fence: a concurrent table_expire may have read the
    # tag set before this tag landed and already unlinked the manifest.
    # Wait out any destructive phase that started around our write,
    # then re-check — if the manifest vanished, withdraw the NEW pin
    # and fail loudly rather than leave a dangling pin on deleted
    # data. A force re-point RESTORES the prior pin (which pointed at
    # retained data) instead of deleting the tag outright. (expire
    # also re-reads tags immediately before unlinking.)
    _wait_expire_lock(table_dir)
    if not os.path.exists(manifest):
        try:
            if prior is not None:
                rtmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
                with open(rtmp, "w") as fh:
                    json.dump(prior, fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(rtmp, path)
            else:
                os.unlink(path)
        except OSError:
            pass
        raise ValueError(
            f"tablelog: version {v} expired while tagging — tag withdrawn"
        )
    return v


def table_untag(table_dir: str, name: str) -> None:
    """Remove a tag (the pinned version becomes expirable again)."""
    try:
        os.unlink(_tag_path(table_dir, name))
    except FileNotFoundError:
        raise ValueError(f"tablelog: no tag {name!r}") from None


def table_tags(table_dir: str) -> dict:
    """{tag name: pinned version} for every tag on the table."""
    out = {}
    try:
        names = os.listdir(_log_dir(table_dir))
    except FileNotFoundError:
        return out
    for n in sorted(names):
        if n.startswith("tag-") and n.endswith(".json"):
            try:
                with open(os.path.join(_log_dir(table_dir), n)) as fh:
                    out[n[4:-5]] = int(json.load(fh)["version"])
            except FileNotFoundError:
                continue  # concurrently untagged between listdir and open
    return out


def _resolve_as_of(table_dir: str, as_of: float) -> int:
    """Timestamp time travel: the highest version whose commit time is
    <= ``as_of`` (unix seconds). Manifests record ``ts`` at commit
    (legacy manifests fall back to file mtime). Commit times are
    non-decreasing with version (commits serialize through the
    exclusive manifest link), so the scan walks versions DESCENDING
    and returns at the first hit — one or two manifest reads in the
    common case, not the whole log."""
    log = _log_dir(table_dir)
    try:
        names = os.listdir(log)
    except FileNotFoundError:
        raise ValueError(f"tablelog: {table_dir} is not a table") from None
    vs = sorted(
        (
            int(n[1:9])
            for n in names
            if n.startswith("v") and n.endswith(".json") and n[1:9].isdigit()
        ),
        reverse=True,
    )
    for v in vs:
        path = os.path.join(log, _manifest_name(v))
        try:
            with open(path) as fh:
                ts = json.load(fh).get("ts")
            if ts is None:
                ts = os.path.getmtime(path)
        except OSError:
            continue  # expired under the scan
        if ts <= as_of:
            return v
    raise ValueError(
        f"tablelog: no retained version committed at or before {as_of}"
    )


def _resolve_tag(table_dir: str, version, tag):
    """Shared tag→version resolution for the read paths: one open of
    the single tag file (not a scan of all tags); tag and version are
    mutually exclusive."""
    if tag is None:
        return version
    if version is not None:
        raise ValueError("tablelog: pass version OR tag, not both")
    try:
        with open(_tag_path(table_dir, tag)) as fh:
            return int(json.load(fh)["version"])
    except FileNotFoundError:
        raise ValueError(f"tablelog: no tag {tag!r}") from None


def read_table_at(
    table_dir: str,
    version: int = None,
    *,
    filter_col=None,
    lo=None,
    hi=None,
    columns=None,
    tag: str = None,
    as_of: float = None,
):
    """Read the table AS OF ``version`` (default: head) as a Dataset.
    With ``filter_col``/``lo``/``hi``, files whose manifest stats prove
    no row can match are never opened (``read_table_at.last_pruning``
    records (files_read, files_total)); the residual filter keeps the
    result exact whether or not a file carried stats. ``columns``
    prunes at the parquet decode (pass the filter column too when
    combining both). ``tag`` resolves a pinned snapshot name
    (`table_tag`) to its version; ``as_of`` (unix seconds) resolves
    the latest version committed at or before that time — version,
    tag, and as_of are mutually exclusive."""
    import ray.data as rd

    head = _head_version(table_dir)
    if head < 0:
        raise ValueError(f"tablelog: {table_dir} is not a table")
    if as_of is not None:
        if version is not None or tag is not None:
            raise ValueError("tablelog: pass only one of version / tag / as_of")
        version = _resolve_as_of(table_dir, float(as_of))
    version = _resolve_tag(table_dir, version, tag)
    v = head if version is None else int(version)
    m = _read_manifest(table_dir, v)
    files = m["files"]
    keep = []
    for f in files:
        s = f.get("stats", {}).get(filter_col) if filter_col else None
        if s is not None:
            if lo is not None and s[1] < lo:
                continue
            if hi is not None and s[0] >= hi:
                continue
        keep.append(f)
    read_table_at.last_pruning = (len(keep), len(files))
    if not keep:
        return _typed_empty(table_dir, files, columns, m.get("defaults"))
    ds = _read_version_files(table_dir, keep, columns, m.get("defaults"))
    if filter_col is None or (lo is None and hi is None):
        return ds

    def residual(batch: pa.Table) -> pa.Table:
        col = batch[filter_col]
        mask = pc.is_valid(col)
        if lo is not None:
            mask = pc.and_(mask, pc.greater_equal(col, pa.scalar(lo)))
        if hi is not None:
            mask = pc.and_(mask, pc.less(col, pa.scalar(hi)))
        return batch.filter(mask)

    return ds.map_batches(residual, batch_format="pyarrow", zero_copy_batch=True)


def read_table_keys(
    table_dir: str, key_col: str, keys, *, version: int = None, columns=None,
    tag: str = None,
):
    """Point lookup over a bloom-indexed table: open ONLY the files of
    the version whose ``key_col`` sidecar admits one of ``keys`` (plus
    any file WITHOUT a sidecar — soundness over pruning), then apply
    the exact ``is_in`` residual. The read-side payoff of the same
    sidecars the copy-on-write merge/delete prune with: k url lookups
    over a 100-TB table touch O(files containing those urls), not the
    table. ``read_table_keys.last_pruning`` records (files_read,
    files_total). ``tag`` resolves a pinned snapshot name, exactly as
    in `read_table_at`."""
    import ray.data as rd

    from .storage import _probe_blooms

    head = _head_version(table_dir)
    if head < 0:
        raise ValueError(f"tablelog: {table_dir} is not a table")
    version = _resolve_tag(table_dir, version, tag)
    v = head if version is None else int(version)
    _m = _read_manifest(table_dir, v)
    files = _m["files"]
    ks = sorted({k for k in keys if k is not None})
    if not ks:
        raise ValueError("read_table_keys: empty key set")
    indexed = [f for f in files if f.get("bloom", {}).get("key") == key_col]
    unindexed = [f for f in files if f.get("bloom", {}).get("key") != key_col]
    hit: set = set()
    if indexed:
        keys_ref = ray.put(pa.array(ks))
        rows_ = [{"shard": f["path"], "k": f["bloom"]["k"]} for f in indexed]
        hit = set().union(
            *ray.get(
                [
                    _probe_blooms.remote(table_dir, rows_[i : i + 256], key_col, keys_ref)
                    for i in range(0, len(rows_), 256)
                ]
            )
        )
    keep = [f for f in indexed if f["path"] in hit] + unindexed
    read_table_keys.last_pruning = (len(keep), len(files))
    if not keep:
        return _typed_empty(table_dir, files, columns, _m.get("defaults"))
    # the residual needs key_col even when the caller's projection
    # omits it — read it, filter, then drop it
    read_cols = columns
    if columns is not None and key_col not in columns:
        read_cols = list(columns) + [key_col]
    ds = _read_version_files(table_dir, keep, read_cols, _m.get("defaults"))
    vset = pa.array(ks)

    def residual(batch: pa.Table) -> pa.Table:
        out = batch.filter(pc.is_in(batch[key_col], value_set=vset))
        if columns is not None and key_col not in columns:
            out = out.select(list(columns))
        return out

    return ds.map_batches(residual, batch_format="pyarrow", zero_copy_batch=True)


def table_add_column(table_dir: str, name: str, default, *, retries: int = 5, note=None) -> int:
    """Schema evolution — add a column with a constant ``default`` as a
    METADATA-ONLY commit: no data file is touched; every file written
    before the column existed gets the default filled at read time
    (``read_table_at``/``read_table_keys``), and later appends may carry
    the column physically. The default (and its Arrow type, inferred
    via ``pa.scalar``) rides the manifest ``defaults`` map, which every
    subsequent commit carries forward; an overwrite resets the logical
    schema to its own data. This is the common 90% of table evolution
    (Iceberg add-column) without rewrite cost at any table size."""
    if _head_version(table_dir) < 0:
        raise ValueError(f"tablelog: {table_dir} is not a table")
    try:
        pa.scalar(default)  # must be Arrow-inferable...
        json.dumps(default)  # ...and ride a JSON manifest
    except (TypeError, pa.ArrowInvalid, pa.ArrowTypeError):
        raise ValueError(
            f"table_add_column: default {default!r} is not usable as a "
            "column default (use a plain int/float/str/bool/None)"
        ) from None
    def build_man(h, parent):
        defaults = dict(parent.get("defaults") or {})
        phys = parent["files"][0]["cols"] if parent["files"] else []
        if name in defaults or name in phys:
            raise ValueError(f"table_add_column: column {name!r} already exists")
        defaults[name] = default
        return {
            "version": h + 1,
            "parent": h,
            "operation": "add_column",
            "note": note,
            "files": parent["files"],
            "defaults": defaults,
        }

    return _commit_metadata_with_retry(table_dir, build_man, retries)


def _fill_defaults(ds, defaults: dict, columns=None, types: dict = None):
    """Reader-side schema evolution: append each defaulted column a
    batch is physically missing. The constant's Arrow type comes from
    ``types`` when a physical occurrence of the column exists elsewhere
    in the version (so filled and physical groups union cleanly), else
    from ``pa.scalar`` inference."""
    want = {
        k: v for k, v in defaults.items() if columns is None or k in columns
    }
    if not want:
        return ds
    types = types or {}

    def fill(batch: pa.Table) -> pa.Table:
        for k, v in want.items():
            if k not in batch.column_names:
                t = types.get(k) or pa.scalar(v).type
                batch = batch.append_column(
                    k, pa.array([v] * batch.num_rows, type=t).cast(t)
                )
        return batch

    return ds.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


def _typed_empty(table_dir: str, files: list, columns, defaults: dict):
    """Empty Dataset with the version's LOGICAL schema: physical schema
    of any file plus the evolved (defaulted) columns, projected to
    ``columns`` when given. A zero-file version has no schema to offer."""
    import ray.data as rd

    defaults = defaults or {}
    if not files:
        return rd.from_arrow(pa.table({}))
    sch = pq.read_schema(os.path.join(table_dir, files[0]["path"]))
    for k, v in defaults.items():
        if sch.get_field_index(k) < 0:
            sch = sch.append(pa.field(k, pa.scalar(v).type))
    if columns is not None:
        sch = pa.schema([sch.field(c) for c in columns])
    return rd.from_arrow(sch.empty_table())


def _read_version_files(table_dir: str, keep: list, columns, defaults: dict):
    """Read a set of manifest files as one Dataset, schema-evolution
    aware: files are grouped by the PHYSICAL subset of the requested
    columns they contain (manifest ``cols``), each group reads with its
    own pushdown, missing defaulted columns fill as constants, and the
    groups union — so rows written after an add-column keep their real
    values while older files get the default, under any ``columns``
    projection."""
    import ray.data as rd

    defaults = defaults or {}
    if not defaults:
        kwargs = {"columns": list(columns)} if columns is not None else {}
        return rd.read_parquet(
            [os.path.join(table_dir, f["path"]) for f in keep], **kwargs
        )
    want = list(columns) if columns is not None else None
    unknown = [
        c
        for c in (want or [])
        if c not in defaults
        and not any(c in (f.get("cols") or []) for f in keep)
    ]
    if unknown:
        raise ValueError(f"tablelog: unknown columns {unknown}")
    groups: dict = {}
    for f in keep:
        phys = tuple(
            c
            for c in (f.get("cols") or [])
            if want is None or c in want
        )
        groups.setdefault(phys, []).append(f)
    # when a defaulted column exists PHYSICALLY in some file, the fill
    # must use that Arrow type (not pa.scalar inference) or the
    # filled/physical groups won't union
    fill_types: dict = {}
    for c in defaults:
        for f in keep:
            if c in (f.get("cols") or []):
                sch = pq.read_schema(os.path.join(table_dir, f["path"]))
                fill_types[c] = sch.field(c).type
                break
    parts = []
    out_cols = None
    for phys, fs in sorted(groups.items()):
        d = rd.read_parquet(
            [os.path.join(table_dir, f["path"]) for f in fs],
            columns=list(phys),
        )
        missing = {
            c: v
            for c, v in defaults.items()
            if c not in phys and (want is None or c in want)
        }
        d = _fill_defaults(d, missing, types=fill_types)
        cols = (
            want
            if want is not None
            else list(phys) + [c for c in defaults if c not in phys]
        )
        if out_cols is None:
            out_cols = cols
        d = d.select_columns(list(out_cols))
        parts.append(d)
    ds = parts[0]
    for d in parts[1:]:
        ds = ds.union(d)
    return ds


def table_history(table_dir: str) -> pd.DataFrame:
    """One row per retained version: version, operation, parent,
    n_files, n_rows — the audit surface (reference analogue: the
    release listing the updater walks, backend/routes/update_routes.py)."""
    head = _head_version(table_dir)
    rows = []
    for name in sorted(os.listdir(_log_dir(table_dir))):
        if not (name.startswith("v") and name.endswith(".json")):
            continue
        with open(os.path.join(_log_dir(table_dir), name)) as fh:
            m = json.load(fh)
        rows.append(
            {
                "version": m["version"],
                "operation": m["operation"],
                "parent": m["parent"],
                "n_files": len(m["files"]),
                "n_rows": int(sum(f["rows"] for f in m["files"])),
                "note": m.get("note"),
                "ts": m.get("ts"),
                "is_head": m["version"] == head,
            }
        )
    return pd.DataFrame(rows).sort_values("version").reset_index(drop=True)


def table_compact(table_dir: str, *, target_mb: int = 256, row_group_rows: int = 65536) -> int:
    """Rewrite the HEAD snapshot's small files into ~``target_mb``
    files and commit the result as a new version (operation
    ``compact``) — logically a no-op, physically the small-file cure.
    Reuses the shard compactor's streaming per-group rewrite
    (`storage._compact_group`): bounded memory, one Ray task per
    output file. Time travel to pre-compaction versions still works."""
    from .storage import _compact_group

    head = _head_version(table_dir)
    m = _read_manifest(table_dir, head)
    if not m["files"]:
        raise ValueError("tablelog: nothing to compact (empty table)")
    token = uuid.uuid4().hex[:12]
    stage = os.path.join(table_dir, _DATA, token)
    os.makedirs(stage, exist_ok=True)
    target = target_mb * (1 << 20)
    groups: list = []
    # post-evolution tables can hold files with different physical
    # schemas (add_column is metadata-only) — the streaming compactor
    # requires a uniform schema per output file, so bins never mix
    # schema signatures
    by_schema: dict = {}
    for f in m["files"]:
        by_schema.setdefault(tuple(f.get("cols") or ()), []).append(f)
    for _sig, fs in sorted(by_schema.items()):
        sized = [
            (
                os.path.join(table_dir, f["path"]),
                os.path.getsize(os.path.join(table_dir, f["path"])),
            )
            for f in fs
        ]
        order = sorted(sized, key=lambda x: (-x[1], x[0]))
        totals: list = []
        sub: list = []
        for path, size in order:
            for i, t_ in enumerate(totals):
                if t_ + size <= target:
                    sub[i].append(path)
                    totals[i] += size
                    break
            else:
                sub.append([path])
                totals.append(size)
        groups.extend(sub)
    futs = [
        _compact_group.remote(
            g, os.path.join(stage, f"compact-{i:05d}.parquet"), row_group_rows
        )
        for i, g in enumerate(groups)
    ]
    ray.get(futs)
    files = sorted(f for f in os.listdir(stage) if f.endswith(".parquet"))
    paths = [os.path.join(stage, f) for f in files]
    rels = [f"{_DATA}/{token}/{f}" for f in files]
    stats_cols = sorted({c for f in m["files"] for c in f.get("stats", {})})
    rows: list = []
    for part in ray.get(
        [_file_meta.remote(paths[i : i + 64], rels[i : i + 64], stats_cols) for i in range(0, len(paths), 64)]
    ):
        rows.extend(part)
    # sidecar inheritance (same rule as _rewrite_and_commit): compaction
    # must not silently strip the table's bloom indexing
    bloom_keys = sorted({f["bloom"]["key"] for f in m["files"] if f.get("bloom")})
    for bk in bloom_keys:
        sub = [r for r in rows if bk in r["cols"] and not r.get("bloom")]
        if sub:
            _attach_blooms(
                table_dir,
                sub,
                [os.path.join(table_dir, r["path"]) for r in sub],
                bk,
            )
    compacted_from = {f["path"] for f in m["files"]}
    for _ in range(5):
        h = _head_version(table_dir)
        curm = _read_manifest(table_dir, h)
        cur = curm["files"]
        cur_paths = {f["path"] for f in cur}
        if not compacted_from <= cur_paths:
            # a concurrent merge/overwrite rewrote files this compaction
            # consumed — the rewrite is stale, don't publish it
            raise CommitConflict(
                "tablelog: head files changed under table_compact "
                "(concurrent merge/overwrite); rerun compaction"
            )
        # append racers are safe: keep their new files alongside ours
        extra = [f for f in cur if f["path"] not in compacted_from]
        man = {
            "version": h + 1,
            "parent": h,
            "operation": "compact",
            "files": rows + extra,
        }
        if curm.get("defaults"):
            man["defaults"] = curm["defaults"]
        try:
            _commit(table_dir, h + 1, man)
            return h + 1
        except CommitConflict:
            continue
    raise CommitConflict(
        f"tablelog: lost 5 commit races on {table_dir}; giving up"
    )


@ray.remote(num_cpus=1)
def _rewrite_without_keys(src: str, dst: str, key_col: str, keys_ref) -> None:
    """Copy-on-write one file: stream its row groups, drop rows whose
    key is in the broadcast upsert set, write the survivor file
    (tmp+rename). Bounded memory; the upsert keys arrive ONCE per task
    via the object store, never per batch."""
    vset = keys_ref
    f = pq.ParquetFile(src)
    tmp = dst + ".tmp"
    with pq.ParquetWriter(tmp, f.schema_arrow) as w:
        for batch in f.iter_batches(batch_size=65536):
            t = pa.Table.from_batches([batch])
            t = t.filter(
                pc.invert(pc.is_in(t[key_col], value_set=vset).fill_null(False))
            )
            if t.num_rows:
                w.write_table(t)
    os.replace(tmp, dst)


def table_merge(
    table_dir: str,
    ds,
    key_col: str,
    *,
    stats_cols=(),
    key_budget_rows: int = 5_000_000,
    token=None,
    retries: int = 5,
    note=None,
    bloom_key=None,
    meta=None,
) -> int:
    """Copy-on-write MERGE (upsert by ``key_col``): rows of ``ds``
    REPLACE same-key rows in the head snapshot; new keys insert — the
    recurring-crawl operation (latest capture of a url supersedes the
    stored one) as one atomic version. Only files that can contain a
    matched key are rewritten (manifest [min, max] stats prune the
    candidate set when present); untouched files carry forward by
    reference, so merge cost scales with the AFFECTED data, not the
    table. The upsert key set is a budgeted driver pull (keys only,
    ``key_budget_rows`` guard) broadcast once via ``ray.put`` to the
    parallel per-file rewrite tasks. Multiple same-key rows in ``ds``
    all land (the table-side rows are what gets replaced) — pre-dedup
    the upsert side if last-writer-wins within the batch is needed.
    Time travel to pre-merge versions still works until expiry."""
    head = _head_version(table_dir)
    if head < 0:
        raise ValueError(f"tablelog: {table_dir} is not a table")
    # stage FIRST, pull keys from the staged parquet afterwards: the
    # upstream pipeline (e.g. extraction) executes exactly once, and
    # the delete set is derived from the very rows that were committed
    # — no re-execution, no drift window if upstream were ever
    # nondeterministic
    token = token or uuid.uuid4().hex[:12]
    new_rows = _stage_files(table_dir, ds, stats_cols or (), token, bloom_key)
    if sum(r["rows"] for r in new_rows) > key_budget_rows:
        raise ValueError(
            f"table_merge: upsert side has {sum(r['rows'] for r in new_rows)} "
            f"rows > key_budget_rows={key_budget_rows}; merge in smaller batches"
        )
    kparts = []
    for r in new_rows:
        col = pq.read_table(
            os.path.join(table_dir, r["path"]), columns=[key_col]
        )[key_col]
        kparts.append(col.combine_chunks().drop_null())
    flat = pa.concat_arrays(kparts) if kparts else pa.array([])
    if len(flat):
        u = pc.unique(flat)
        keys = u.take(pc.sort_indices(u))
    else:
        keys = flat
    keys_ref = ray.put(keys)

    return _rewrite_and_commit(
        table_dir,
        key_col,
        keys,
        keys_ref,
        operation="merge",
        new_rows=new_rows,
        stats_cols=stats_cols,
        retries=retries,
        note=note,
        bloom_key=bloom_key,
        meta=meta,
    )


def _rewrite_and_commit(
    table_dir,
    key_col,
    keys,
    keys_ref,
    *,
    operation,
    new_rows,
    stats_cols,
    retries,
    note,
    bloom_key=None,
    meta=None,
) -> int:
    """Shared copy-on-write tail of merge and delete: prune the
    candidate file set with manifest [min, max] stats AND per-file
    Bloom sidecars (when the parent files carry one for ``key_col``),
    rewrite only candidates (dropping rows whose key is in the
    broadcast set), and commit carried + rewritten + new files with
    optimistic retry."""
    from .storage import _probe_blooms

    klo = keys[0].as_py() if len(keys) else None
    khi = keys[-1].as_py() if len(keys) else None
    for _ in range(max(1, retries)):
        h = _head_version(table_dir)
        parent = _read_manifest(table_dir, h)
        defaults = parent.get("defaults") or {}
        _check_schema(new_rows, parent["files"], defaults)
        carried, rewrite = [], []
        probe = []  # bloom-indexed candidates: ask the sidecar first
        for f in parent["files"]:
            fcols = f.get("cols")
            if fcols and key_col not in fcols:
                # legacy physical schema lacks the key column
                # (add_column is metadata-only): every row of this file
                # carries the evolved DEFAULT for key_col, so the file
                # either drops whole (default ∈ key set) or carries by
                # reference — never a rewrite task, which would KeyError
                # on the missing column (ADVICE r4)
                if key_col not in defaults:
                    raise ValueError(
                        f"tablelog: {operation} keyed on {key_col!r}, but "
                        f"file {f['path']} lacks the column and the table "
                        "declares no default for it — cannot resolve "
                        "row-level semantics for a column that never "
                        "physically existed in this file"
                    )
                dval = defaults[key_col]
                if len(keys) and (
                    pc.is_in(
                        pa.array([dval]).cast(keys.type), value_set=keys
                    )
                    .fill_null(False)[0]
                    .as_py()
                ):
                    continue  # whole file replaced/deleted: drop it
                carried.append(f)
                continue
            s = f.get("stats", {}).get(key_col)
            if len(keys) == 0 or (s is not None and (s[1] < klo or s[0] > khi)):
                carried.append(f)
            elif f.get("bloom", {}).get("key") == key_col:
                probe.append(f)
            else:
                rewrite.append(f)
        if probe:
            # the decisive prune for hash-distributed keys (urls):
            # range stats can't separate them, the sidecars can
            rows_ = [{"shard": f["path"], "k": f["bloom"]["k"]} for f in probe]
            hits = set().union(
                *ray.get(
                    [
                        _probe_blooms.remote(
                            table_dir, rows_[i : i + 256], key_col, keys_ref
                        )
                        for i in range(0, len(rows_), 256)
                    ]
                )
            )
            for f in probe:
                (rewrite if f["path"] in hits else carried).append(f)
        rw_token = uuid.uuid4().hex[:12]
        stage = os.path.join(table_dir, _DATA, rw_token)
        os.makedirs(stage, exist_ok=True)
        dsts, rels = [], []
        for i, f in enumerate(rewrite):
            dst = os.path.join(stage, f"rw-{i:05d}.parquet")
            dsts.append(dst)
            rels.append(f"{_DATA}/{rw_token}/rw-{i:05d}.parquet")
        ray.get(
            [
                _rewrite_without_keys.remote(
                    os.path.join(table_dir, f["path"]), dst, key_col, keys_ref
                )
                for f, dst in zip(rewrite, dsts)
            ]
        )
        stats_union = sorted(
            {c for f in rewrite for c in f.get("stats", {})}
            | set(stats_cols or ())
        )
        rw_rows: list = []
        if dsts:
            for part in ray.get(
                [
                    _file_meta.remote(dsts[i : i + 64], rels[i : i + 64], stats_union)
                    for i in range(0, len(dsts), 64)
                ]
            ):
                rw_rows.extend(part)
        rw_rows = [r for r in rw_rows if r["rows"]]  # fully-replaced files drop out
        # sidecar inheritance: like stats (stats_union), a rewritten
        # file keeps its parents' bloom indexing even when the caller
        # didn't pass bloom_key — otherwise one takedown without the
        # flag would permanently degrade every future merge's pruning
        eff_bloom = bloom_key or (
            key_col
            if any(f.get("bloom", {}).get("key") == key_col for f in rewrite)
            else None
        )
        if eff_bloom is not None and rw_rows:
            _attach_blooms(
                table_dir,
                rw_rows,
                [os.path.join(table_dir, r["path"]) for r in rw_rows],
                eff_bloom,
            )
        if eff_bloom is not None and new_rows and not new_rows[0].get("bloom"):
            _attach_blooms(
                table_dir,
                new_rows,
                [os.path.join(table_dir, r["path"]) for r in new_rows],
                eff_bloom,
            )
        man = {
            "version": h + 1,
            "parent": h,
            "operation": operation,
            "note": note,
            "files": carried + rw_rows + new_rows,
        }
        if meta is not None:
            man["meta"] = meta  # caller-opaque JSON (e.g. job counters)
        if defaults:
            man["defaults"] = defaults
        try:
            _commit(table_dir, h + 1, man)
            return h + 1
        except CommitConflict:
            continue  # head moved: candidate set may differ — recompute
    raise CommitConflict(
        f"tablelog: lost {retries} commit races on {table_dir}; giving up"
    )


def table_delete_keys(
    table_dir: str, key_col: str, keys, *, retries: int = 5, note=None, bloom_key=None
) -> int:
    """Row-level DELETE by key — the takedown/right-to-erasure
    operation a web corpus needs (DMCA url removal, opt-out lists):
    every row whose ``key_col`` is in ``keys`` disappears from the new
    head in ONE atomic version, touching only the stats-pruned
    candidate files (same copy-on-write machinery as ``table_merge``,
    minus the insert side). Earlier versions still contain the rows
    until ``table_expire`` reclaims them — run expire after a takedown
    when the history itself must forget."""
    arr = pa.array(sorted({k for k in keys if k is not None}))
    if len(arr) == 0:
        raise ValueError("table_delete_keys: empty key set")
    if _head_version(table_dir) < 0:
        raise ValueError(f"tablelog: {table_dir} is not a table")
    return _rewrite_and_commit(
        table_dir,
        key_col,
        arr,
        ray.put(arr),
        operation="delete",
        new_rows=[],
        stats_cols=(),
        retries=retries,
        note=note,
        bloom_key=bloom_key,
    )


def table_changes(table_dir: str, from_version: int, to_version: int = None):
    """File-level change-data feed between two versions: returns
    ``(added, removed)`` Datasets — rows in files ``to`` references but
    ``from`` doesn't, and vice versa. For append-only history this IS
    the exact row-level delta (the incremental-downstream contract:
    tokenize only what the last ingest added); a merge/compact/
    overwrite surfaces each rewritten file's rows on both sides, with
    unchanged rows of rewritten files appearing in both (document-level
    consumers reconcile by key). O(files) manifest arithmetic — no data
    moves until the returned Datasets are consumed."""
    import ray.data as rd

    to_v = _head_version(table_dir) if to_version is None else int(to_version)
    m_from = _read_manifest(table_dir, from_version)
    m_to = _read_manifest(table_dir, to_v)
    f_from = {f["path"]: f for f in m_from["files"]}
    f_to = {f["path"]: f for f in m_to["files"]}

    def _read(file_map, only, defaults):
        keep = [f for p, f in sorted(file_map.items()) if p in only]
        if not keep:
            return rd.from_arrow(pa.table({}))
        # evolution-aware: each side reads through the grouped-schema
        # path so mixed physical schemas fill their defaults instead of
        # silently dropping or nulling the evolved columns
        return _read_version_files(table_dir, keep, None, defaults)

    return (
        _read(f_to, set(f_to) - set(f_from), m_to.get("defaults")),
        _read(f_from, set(f_from) - set(f_to), m_from.get("defaults")),
    )


_NOTES_EXPIRED = "_notes_expired.json"


def table_notes(table_dir: str) -> set:
    """Every note ever committed to this table — retained manifests
    PLUS notes preserved from expired ones (``_notes_expired.json``),
    so idempotence decisions (``ingest_dumps_versioned``) survive
    retention GC."""
    notes = set(table_history(table_dir)["note"].dropna())
    try:
        with open(os.path.join(_log_dir(table_dir), _NOTES_EXPIRED)) as fh:
            notes.update(json.load(fh))
    except FileNotFoundError:
        pass
    return notes


def table_expire(
    table_dir: str, *, keep_last: int = 2, orphan_grace_seconds: float = 86400.0,
    dry_run: bool = False,
) -> dict:
    """Retention GC: keep the newest ``keep_last`` versions, delete
    older manifests (their ``note`` stamps are preserved in
    ``_notes_expired.json`` so ingest idempotence survives expiry),
    then delete every data file no retained manifest references. Pure
    driver-side set arithmetic over O(files) metadata — the data plane
    is only touched to unlink.

    ``orphan_grace_seconds`` protects LIVE concurrent writers: an
    unreferenced file younger than the grace (by mtime) is a plausible
    in-flight stage, not garbage, and survives this pass — the same
    retention rule cloud-table VACUUMs use. Set 0 only when no writer
    can be active. Versions pinned by a tag (`table_tag`) are retained
    regardless of ``keep_last`` — manifest kept, files reachable.
    Returns {kept_versions, deleted_files}.

    ``dry_run=True`` plans without touching anything (no notes write,
    no unlinks) and returns {kept_versions, expired_versions,
    deleted_files(count it WOULD delete)} — run it before a sweep with
    ``orphan_grace_seconds=0`` to see what is on the chopping block."""
    import time

    head = _head_version(table_dir)
    if head < 0:
        raise ValueError(f"tablelog: {table_dir} is not a table")
    cutoff = max(0, head - max(1, keep_last) + 1)
    log = _log_dir(table_dir)
    tagged = set(table_tags(table_dir).values())

    def _manifest_names():
        return {
            n for n in os.listdir(log)
            if n.startswith("v") and n.endswith(".json")
        }

    # the destructive-phase mutex (exclusive link, stale-aware):
    # table_restore/table_tag refuse or wait while it is held, so the
    # only writer that can re-reference expiring files cannot slip
    # into the unlink window undetected. dry_run deletes nothing and
    # needs no lock.
    lock = _expire_lock_path(table_dir)
    if not dry_run:
        tmpl = lock + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(tmpl, "w") as fh:
            fh.write(str(os.getpid()))
        try:
            try:
                os.link(tmpl, lock)
            except FileExistsError:
                _steal_stale_expire_lock(table_dir, lock)
                try:
                    os.link(tmpl, lock)
                except FileExistsError:  # a co-stealer linked first
                    raise _expire_busy(table_dir) from None
        finally:
            try:
                os.unlink(tmpl)
            except OSError:
                pass
    try:
        return _expire_locked(
            table_dir, log, cutoff, tagged, orphan_grace_seconds, dry_run,
            _manifest_names,
        )
    finally:
        if not dry_run:
            try:
                os.unlink(lock)
            except OSError:
                pass


def _expire_locked(
    table_dir, log, cutoff, tagged, orphan_grace_seconds, dry_run,
    _manifest_names,
):
    """Body of `table_expire` (see there) — runs under the expire lock
    unless ``dry_run``."""
    for _replan in range(16):
        mnames = _manifest_names()
        kept, reachable, expired_notes = [], set(), set()
        expired_reachable = set()  # data of expired versions: delete NOW
        expired_manifests = []
        # PASS 1 — read-only: collect expired notes + file sets. Nothing
        # is unlinked until the notes sidecar is durably on disk: a
        # crash between unlink and notes-write would permanently lose a
        # dump-idempotence stamp, and a later ingest_dumps_versioned
        # rerun would re-merge a stale old dump over newer captures
        # (ADVICE r4, medium).
        for name in sorted(mnames):  # the fenced snapshot, exactly
            v = int(name[1:9])
            path = os.path.join(log, name)
            try:
                with open(path) as fh:
                    m = json.load(fh)
            except FileNotFoundError:
                if not dry_run:
                    raise
                # dry_run holds no lock: a concurrent real expire
                # unlinked this manifest after the listdir — it is in
                # no plan any more, so the dry run skips it
                continue
            if v < cutoff and v not in tagged:
                if m.get("note"):
                    expired_notes.add(m["note"])
                for f in m["files"]:
                    expired_reachable.add(f["path"])
                    if f.get("bloom"):
                        expired_reachable.add(f["bloom"]["path"])
                expired_manifests.append(path)
                continue
            kept.append(v)
            for f in m["files"]:
                reachable.add(f["path"])
                if f.get("bloom"):
                    reachable.add(f["bloom"]["path"])
        # tag-vs-expire fence (read 1 of 2): a tag that landed during
        # the read-only pass pins its version OUT of the expiry plan —
        # re-read and replan until the tag set is stable (table_tag
        # re-checks its manifest after the tag file lands, closing the
        # other side)
        tagged2 = set(table_tags(table_dir).values())
        if not tagged2 <= tagged:
            tagged |= tagged2
            continue
        if dry_run:
            break  # plan only: no notes write, no unlinks
        # PASS 2 — persist notes FIRST (atomic merge-write), THEN
        # unlink the expired manifests. A crash anywhere leaves either
        # extra manifests (re-expired next run, idempotent) or extra
        # notes (harmless — also why notes may be written for a plan
        # that a late tag then invalidates), never a lost note.
        if expired_notes:
            np_ = os.path.join(log, _NOTES_EXPIRED)
            try:
                with open(np_) as fh:
                    expired_notes.update(json.load(fh))
            except FileNotFoundError:
                pass
            tmp = np_ + f".tmp-{uuid.uuid4().hex[:8]}"
            try:
                with open(tmp, "w") as fh:
                    json.dump(sorted(expired_notes), fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, np_)
            except BaseException:
                # same tmp-hygiene as _commit: a disk-full/crash
                # mid-write must not litter _log with stray tmp files
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        # fence read 2 of 2, immediately before the destructive step:
        # the fsync'd notes write above can take milliseconds on a
        # loaded disk — a tag landing in that window must be honored,
        # and a new COMMIT must be replanned over only if it
        # re-references files this plan is about to delete (a
        # `table_restore`; restores also respect the expire lock).
        # Unrelated appends/merges reference kept-parent files plus
        # fresh young files the grace protects — proceeding keeps
        # expire live under steady ingest traffic.
        tagged3 = set(table_tags(table_dir).values())
        if not tagged3 <= tagged:
            tagged |= tagged3
            continue
        new_names = _manifest_names() - mnames
        if new_names:
            dying = expired_reachable - reachable
            refs = set()
            for n in sorted(new_names):
                try:
                    with open(os.path.join(log, n)) as fh:
                        for f in json.load(fh)["files"]:
                            refs.add(f["path"])
                            if f.get("bloom"):
                                refs.add(f["bloom"]["path"])
                except FileNotFoundError:
                    continue
            if refs & dying:
                continue  # a restore re-referenced dying files: replan
        break
    else:
        raise CommitConflict(
            f"tablelog: {table_dir} too busy to expire (16 replans — "
            "restores or tags kept landing mid-plan); retry later"
        )
    expired_reachable -= reachable

    def sweepable():
        # the shared delete predicate (used by the real sweep AND the
        # dry-run count): unreachable files, with the orphan grace
        # protecting files referenced by NO manifest
        now = time.time()
        data_root = os.path.join(table_dir, _DATA)
        for root, _dirs, files in os.walk(data_root, topdown=False):
            for f in files:
                p = os.path.join(root, f)
                rel = os.path.relpath(p, table_dir)
                if rel in reachable:
                    continue
                if rel not in expired_reachable:
                    # referenced by NO manifest: only an orphan if
                    # older than the grace — a young one is a
                    # plausible in-flight stage of a live writer
                    try:
                        if now - os.path.getmtime(p) < orphan_grace_seconds:
                            continue
                    except OSError:
                        continue
                yield p

    if dry_run:
        return {
            "kept_versions": kept,
            "expired_versions": sorted(
                int(os.path.basename(p)[1:9]) for p in expired_manifests
            ),
            "deleted_files": sum(1 for _ in sweepable()),
        }
    for path in expired_manifests:
        os.unlink(path)
    deleted = 0
    for p in sweepable():
        os.unlink(p)
        deleted += 1
    data_root = os.path.join(table_dir, _DATA)
    for root, _dirs, _files in os.walk(data_root, topdown=False):
        if root != data_root and not os.listdir(root):
            os.rmdir(root)
    return {"kept_versions": kept, "deleted_files": deleted}
