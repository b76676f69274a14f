"""CLI entry point — the ``ray job submit`` surface.

    python -m textextract_ray extract --input '/data/pages' --table /tmp/tbl \
        [--shards-per-partition 4|0=auto] [--release-tag NAME]
    python -m textextract_ray report --table /tmp/tbl
    python -m textextract_ray query --name q1_pricing_summary --sf-dir /root/testdata/sf0.01

Owns the Ray session (init guarded, shutdown at exit) — library code
never does (driver contract).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        # respect RAY_ADDRESS (set by `ray job submit` on a cluster);
        # fall back to a local instance for standalone runs
        address = os.environ.get("RAY_ADDRESS", "local")
        kwargs = dict(include_dashboard=False, logging_level="ERROR")
        if address == "local":
            kwargs["num_cpus"] = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        ray.init(address=address, **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_extract(args) -> int:
    from .pipelines.extract_pipeline import run_job_versioned
    from .sources import expand_shards

    if any(c in args.input for c in "*?["):
        files = sorted(glob.glob(args.input))
    else:
        files = expand_shards([args.input], (".parquet", ".warc.gz"))
    if not files:
        print(f"error: no parquet/warc shards under {args.input!r}", file=sys.stderr)
        return 2
    _init_ray()
    report = run_job_versioned(
        files,
        args.table,
        shards_per_partition=args.shards_per_partition or None,
        tag=args.release_tag or None,
    )
    print(report.to_string(index=False))
    return 0


def cmd_report(args) -> int:
    """The ``meta`` of each committed job partition, as JSON."""
    from .pipelines.extract_pipeline import job_part_meta
    from .pipelines.tablelog import _head_version

    parts = job_part_meta(args.table) if _head_version(args.table) >= 0 else {}
    if not parts:
        print(f"error: no job partitions committed to {args.table}", file=sys.stderr)
        return 2
    print(json.dumps([{"note": n, **m} for n, m in parts.items()], indent=2))
    return 0


def cmd_query(args) -> int:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as em

    qs = em.queries()
    if args.name not in qs:
        print(
            f"error: unknown query {args.name!r}; available: {', '.join(sorted(qs))}",
            file=sys.stderr,
        )
        return 2
    _init_ray()
    res = qs[args.name](args.sf_dir)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    print(res.to_string(index=False))
    return 0


def cmd_ingest(args) -> int:
    """Versioned latest-capture-wins ingest: each --dump name=path
    commits as one atomic table version (append, then merges by url)."""
    from .pipelines.ingest import ingest_dumps_versioned
    from .sources import expand_shards

    dumps = []
    for spec in args.dump:
        if "=" not in spec:
            print(f"error: --dump takes name=path, got {spec!r}", file=sys.stderr)
            return 2
        name, path = spec.split("=", 1)
        shards = expand_shards([path], (".parquet", ".warc.gz"))
        if not shards:
            print(f"error: no shards under {path!r}", file=sys.stderr)
            return 2
        dumps.append((name, shards))
    _init_ray()
    hist = ingest_dumps_versioned(dumps, args.table)
    print(hist.to_string(index=False))
    return 0


def cmd_table(args) -> int:
    """Versioned-table maintenance: history / expire / compact."""
    from .pipelines import tablelog

    if args.action == "history":
        print(tablelog.table_history(args.table).to_string(index=False))
    elif args.action == "expire":
        _init_ray()  # sidecar-aware sweep walks only metadata, but be uniform
        res = tablelog.table_expire(
            args.table,
            keep_last=args.keep_last,
            orphan_grace_seconds=args.orphan_grace,
            dry_run=args.dry_run,
        )
        print(json.dumps(res))
    elif args.action == "compact":
        _init_ray()
        v = tablelog.table_compact(args.table, target_mb=args.target_mb)
        print(json.dumps({"compacted_as_version": v}))
    elif args.action == "tag":
        if not args.name:
            raise SystemExit("table tag requires --name")
        v = tablelog.table_tag(
            args.table, args.name, args.version, force=args.force
        )
        print(json.dumps({"tag": args.name, "version": v}))
    elif args.action == "untag":
        if not args.name:
            raise SystemExit("table untag requires --name")
        tablelog.table_untag(args.table, args.name)
        print(json.dumps({"untagged": args.name}))
    elif args.action == "tags":
        print(json.dumps(tablelog.table_tags(args.table)))
    elif args.action == "restore":
        if args.version is None and not args.name:
            raise SystemExit("table restore requires --version or --name")
        v = tablelog.table_restore(
            args.table, args.version, tag=args.name or None
        )
        print(json.dumps({"restored_as_version": v}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="textextract_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="resumable extraction job over parquet shards")
    pe.add_argument("--input", required=True, help="shard glob, directory, or file")
    pe.add_argument(
        "--shards-per-partition",
        type=int,
        default=4,
        help="shards per committed partition; 0 = auto-size from "
        "parquet footers + cluster CPUs (resume keeps the original "
        "sizing recorded in the table)",
    )
    pe.add_argument(
        "--table",
        required=True,
        help="commit partitions into this versioned table log (time "
        "travel / change feeds / compaction; resume is note-based and "
        "automatic)",
    )
    pe.add_argument(
        "--release-tag",
        default="",
        help="pin the completed run's table version as "
        "this named snapshot (survives retention GC; re-running under "
        "the same name re-points it)",
    )
    pe.set_defaults(fn=cmd_extract)

    pr = sub.add_parser("report", help="print the committed job partitions' meta")
    pr.add_argument("--table", required=True)
    pr.set_defaults(fn=cmd_report)

    pq = sub.add_parser("query", help="run a named query from __ray_entry__")
    pq.add_argument("--name", required=True)
    pq.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    pq.set_defaults(fn=cmd_query)

    pi = sub.add_parser(
        "ingest", help="versioned latest-capture-wins ingest of crawl dumps"
    )
    pi.add_argument(
        "--dump",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="one crawl dump (repeatable, processed in order); PATH is a "
        "shard dir or file (.parquet / .warc.gz)",
    )
    pi.add_argument("--table", required=True, help="versioned table directory")
    pi.set_defaults(fn=cmd_ingest)

    pt = sub.add_parser("table", help="versioned-table maintenance")
    pt.add_argument(
        "action",
        choices=["history", "expire", "compact", "tag", "untag", "tags", "restore"],
    )
    pt.add_argument("--table", required=True)
    pt.add_argument("--name", help="tag name (tag/untag)")
    pt.add_argument(
        "--version", type=int, default=None,
        help="version to tag (default: head) / to restore (required "
        "unless --name gives a tag)",
    )
    pt.add_argument(
        "--force", action="store_true", help="re-point an existing tag"
    )
    pt.add_argument(
        "--dry-run", action="store_true",
        help="expire: plan only (kept/expired/would-delete), touch nothing",
    )
    pt.add_argument("--keep-last", type=int, default=2)
    pt.add_argument(
        "--orphan-grace",
        type=float,
        default=86400.0,
        help="seconds an unreferenced data file must be old before the "
        "expire sweep treats it as a crashed writer's orphan",
    )
    pt.add_argument("--target-mb", type=int, default=256)
    pt.set_defaults(fn=cmd_table)

    args = p.parse_args(argv)
    if getattr(args, "table", ""):
        from .pipelines.tablelog import _log_dir

        try:
            _log_dir(args.table)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
