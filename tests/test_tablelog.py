"""Versioned-table commit log: atomic commits, time travel, optimistic
concurrency, stats pruning, retention GC, compaction."""

from __future__ import annotations

import os

import pandas as pd
import pytest

from textextract_ray.pipelines.tablelog import (
    CommitConflict,
    _commit,
    _head_version,
    read_table_at,
    table_append,
    table_compact,
    table_create,
    table_expire,
    table_history,
    table_overwrite,
)


def _df(lo: int, hi: int) -> pd.DataFrame:
    return pd.DataFrame(
        {"k": range(lo, hi), "txt": [f"row-{i}" for i in range(lo, hi)]}
    )


def _ds(lo: int, hi: int):
    import ray.data as rd

    return rd.from_pandas(_df(lo, hi))


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("k").reset_index(drop=True)


def test_append_overwrite_time_travel(ray_session, tmp_path):
    t = str(tmp_path / "tbl")
    assert table_create(t) == 0
    v1 = table_append(t, _ds(0, 100))
    v2 = table_append(t, _ds(100, 150))
    v3 = table_overwrite(t, _ds(500, 520))
    assert (v1, v2, v3) == (1, 2, 3)
    # head == v3: only the overwrite rows
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t).to_pandas()), _sorted(_df(500, 520))
    )
    # time travel: v2 = both appends, v1 = first append, v0 = empty
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, 2).to_pandas()), _sorted(_df(0, 150))
    )
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, 1).to_pandas()), _sorted(_df(0, 100))
    )
    assert read_table_at(t, 0).count() == 0

    h = table_history(t)
    assert list(h["version"]) == [0, 1, 2, 3]
    assert list(h["operation"]) == ["create", "append", "append", "overwrite"]
    assert list(h["n_rows"]) == [0, 100, 150, 20]
    assert list(h["is_head"]) == [False, False, False, True]


def test_create_twice_and_missing_version(ray_session, tmp_path):
    t = str(tmp_path / "tbl")
    table_create(t)
    with pytest.raises(ValueError, match="already a table"):
        table_create(t)
    with pytest.raises(ValueError, match="not found"):
        read_table_at(t, 7)
    with pytest.raises(ValueError, match="not a table"):
        read_table_at(str(tmp_path / "nope"))


def test_commit_is_exclusive_and_append_retries(ray_session, tmp_path):
    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 10))
    head = _head_version(t)
    # a "concurrent writer" takes the next version slot (a faithful
    # appender: parent files carried forward, nothing new)
    from textextract_ray.pipelines.tablelog import _read_manifest

    parent_files = _read_manifest(t, head)["files"]
    _commit(
        t,
        head + 1,
        {
            "version": head + 1,
            "parent": head,
            "operation": "append",
            "files": parent_files,
        },
    )
    # direct double-commit of the same version is refused atomically
    with pytest.raises(CommitConflict):
        _commit(
            t,
            head + 1,
            {
                "version": head + 1,
                "parent": head,
                "operation": "append",
                "files": parent_files,
            },
        )
    # but the public append re-reads the head and lands AFTER the racer
    v = table_append(t, _ds(10, 20))
    assert v == head + 2
    assert read_table_at(t).count() == 20


def test_schema_guard(ray_session, tmp_path):
    import ray.data as rd

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 5))
    with pytest.raises(ValueError, match="schema"):
        table_append(t, rd.from_pandas(pd.DataFrame({"other": [1, 2]})))


def test_stats_pruning_exact(ray_session, tmp_path):
    t = str(tmp_path / "tbl")
    table_create(t)
    # three appends with disjoint key ranges -> three file sets whose
    # manifest stats are disjoint
    table_append(t, _ds(0, 1000), stats_cols=["k"])
    table_append(t, _ds(1000, 2000), stats_cols=["k"])
    table_append(t, _ds(2000, 3000), stats_cols=["k"])
    got = read_table_at(t, filter_col="k", lo=1200, hi=1300).to_pandas()
    files_read, files_total = read_table_at.last_pruning
    assert files_read < files_total  # pruning actually skipped files
    pd.testing.assert_frame_equal(_sorted(got), _sorted(_df(1200, 1300)))
    # unbounded side + result exactness
    got2 = read_table_at(t, filter_col="k", lo=2990).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got2), _sorted(_df(2990, 3000)))


def test_expire_keeps_recent_drops_old(ray_session, tmp_path):
    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 50))
    table_overwrite(t, _ds(50, 80))
    # a crashed writer's orphan stage file
    orphan_dir = os.path.join(t, "data", "orphan")
    os.makedirs(orphan_dir)
    with open(os.path.join(orphan_dir, "junk.parquet"), "w") as fh:
        fh.write("x")
    # default grace protects a YOUNG unreferenced file (it could be a
    # live writer's in-flight stage) while expired-version data deletes
    res0 = table_expire(t, keep_last=1)
    assert res0["kept_versions"] == [2]
    assert os.path.exists(os.path.join(orphan_dir, "junk.parquet"))
    assert res0["deleted_files"] >= 1  # v1 data went regardless of age
    # grace 0 (no live writers): the orphan is swept too
    res = table_expire(t, keep_last=1, orphan_grace_seconds=0.0)
    assert res["deleted_files"] >= 1  # the orphan
    # head still reads exactly; old versions are gone
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t).to_pandas()), _sorted(_df(50, 80))
    )
    with pytest.raises(ValueError, match="not found"):
        read_table_at(t, 1)
    assert not os.path.exists(orphan_dir)


def test_compact_preserves_snapshot_and_history(ray_session, tmp_path):
    import ray.data as rd

    t = str(tmp_path / "tbl")
    table_create(t)
    # many small appends -> many small files
    for i in range(4):
        table_append(
            t,
            rd.from_pandas(_df(i * 10, i * 10 + 10)).repartition(2),
            stats_cols=["k"],
        )
    pre = table_history(t)
    n_files_pre = int(pre.loc[pre["is_head"], "n_files"].iloc[0])
    v = table_compact(t, target_mb=256)
    post = table_history(t)
    row = post[post["version"] == v].iloc[0]
    assert row["operation"] == "compact"
    assert row["n_files"] < n_files_pre
    assert row["n_rows"] == 40
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t).to_pandas()), _sorted(_df(0, 40))
    )
    # compaction carried the stats columns forward -> pruning still works
    read_table_at(t, filter_col="k", lo=35).to_pandas()
    assert read_table_at.last_pruning[0] <= read_table_at.last_pruning[1]
    # pre-compaction snapshot still readable (no expire yet)
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, v - 1).to_pandas()), _sorted(_df(0, 40))
    )


def test_merge_upsert_replaces_and_inserts(ray_session, tmp_path):
    import ray.data as rd

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 1000), stats_cols=["k"])
    table_append(t, _ds(1000, 2000), stats_cols=["k"])
    # upsert: replace 5 existing keys, insert 3 new ones
    up = pd.DataFrame(
        {"k": [10, 11, 12, 1500, 1501, 9000, 9001, 9002],
         "txt": [f"new-{i}" for i in range(8)]}
    )
    from textextract_ray.pipelines.tablelog import table_changes, table_merge

    v = table_merge(t, rd.from_pandas(up), "k", stats_cols=["k"])
    got = _sorted(read_table_at(t).to_pandas())
    want = pd.concat(
        [_df(0, 2000)[~_df(0, 2000)["k"].isin(up["k"])], up]
    )
    pd.testing.assert_frame_equal(got, _sorted(want))
    # history records the merge; pre-merge snapshot intact (time travel)
    h = table_history(t)
    assert h[h["version"] == v]["operation"].iloc[0] == "merge"
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, v - 1).to_pandas()), _sorted(_df(0, 2000))
    )
    # stats pruning survives the merge rewrite
    read_table_at(t, filter_col="k", lo=9000).to_pandas()
    assert read_table_at.last_pruning[0] < read_table_at.last_pruning[1]


def test_merge_prunes_untouched_files(ray_session, tmp_path):
    import ray.data as rd

    from textextract_ray.pipelines.tablelog import _read_manifest, table_merge

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 1000), stats_cols=["k"])
    table_append(t, _ds(5000, 6000), stats_cols=["k"])
    pre = {f["path"] for f in _read_manifest(t, _head_version(t))["files"]}
    up = pd.DataFrame({"k": [5100], "txt": ["patched"]})
    v = table_merge(t, rd.from_pandas(up), "k", stats_cols=["k"])
    post = _read_manifest(t, v)["files"]
    # the 0-999 file(s) carried forward BY REFERENCE (no rewrite)
    carried = {f["path"] for f in post} & pre
    assert carried  # at least the disjoint-range files survived untouched
    got = read_table_at(t).to_pandas()
    assert len(got) == 2000 and (got.loc[got.k == 5100, "txt"] == "patched").all()


def test_changes_between_versions(ray_session, tmp_path):
    from textextract_ray.pipelines.tablelog import table_changes

    t = str(tmp_path / "tbl")
    table_create(t)
    v1 = table_append(t, _ds(0, 100))
    v2 = table_append(t, _ds(100, 130))
    added, removed = table_changes(t, v1, v2)
    pd.testing.assert_frame_equal(
        _sorted(added.to_pandas()), _sorted(_df(100, 130))
    )
    assert removed.count() == 0
    # default to_version = head
    added2, _ = table_changes(t, 0)
    assert added2.count() == 130
    # overwrite shows both sides
    v3 = table_overwrite(t, _ds(500, 510))
    added3, removed3 = table_changes(t, v2, v3)
    assert added3.count() == 10 and removed3.count() == 130


def test_incremental_crawl_composition(ray_session, tmp_path):
    """The flagship composition the table log exists for: dump-1
    extraction commits as the corpus table; a recrawl of a subset of
    urls MERGEs by url — head == latest-capture-per-url, old snapshot
    still time-travels."""
    import pyarrow.compute as pc
    import ray.data as rd

    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines.extract_pipeline import extract_files
    from textextract_ray.pipelines.tablelog import table_merge

    files = generate_pages(str(tmp_path / "pages"), 120, 4, giant_bytes=1 << 16)
    t = str(tmp_path / "corpus")
    table_create(t)
    dump1 = extract_files(files).select_columns(["url", "extracted_text", "status"])
    table_append(t, dump1, stats_cols=["url"])
    base = dump1.to_pandas()

    # "recrawl": 30 urls come back with changed content
    recrawl = base.sort_values("url").head(30).copy()
    recrawl["extracted_text"] = "RECRAWLED::" + recrawl["extracted_text"]
    v = table_merge(t, rd.from_pandas(recrawl), "url", stats_cols=["url"])

    got = read_table_at(t).to_pandas().sort_values("url").reset_index(drop=True)
    want = base[~base.url.isin(recrawl.url)]
    want = (
        pd.concat([want, recrawl]).sort_values("url").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want[got.columns.tolist()])
    assert got.url.is_unique  # merge kept the url-dedup invariant
    # the pre-recrawl corpus is still exactly readable
    old = read_table_at(t, v - 1).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        old, base.sort_values("url").reset_index(drop=True)[old.columns.tolist()]
    )


def test_ingest_dumps_versioned_latest_wins_and_idempotent(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines.extract_pipeline import extract_files
    from textextract_ray.pipelines.ingest import ingest_dumps_versioned

    dump1 = generate_pages(str(tmp_path / "d1"), 120, 4, giant_bytes=1 << 16)
    # dump 2: 30 of dump-1's urls recrawled with DIFFERENT content
    # (html payloads rolled by one row, timestamps bumped)
    t1 = pq.read_table(dump1[0]).slice(0, 30)
    cols = {c: t1[c] for c in t1.column_names}
    html = t1["html"].to_pylist()
    cols["html"] = pa.array(html[1:] + html[:1], pa.binary())
    d2_path = str(tmp_path / "d2.parquet")
    pq.write_table(pa.table(cols, schema=t1.schema), d2_path)

    t = str(tmp_path / "tbl")
    hist = ingest_dumps_versioned([("d1", dump1), ("d2", [d2_path])], t)
    assert list(hist["note"].dropna()) == ["dump:d1", "dump:d2"]

    got = read_table_at(t).to_pandas().set_index("url").sort_index()
    # the fixture corpus deliberately contains duplicate urls, so the
    # expected key set is dump-1's DEDUPED extraction output
    want1 = extract_files(dump1).to_pandas().set_index("url")
    want2 = extract_files([d2_path]).to_pandas().set_index("url")
    assert got.index.is_unique and len(got) == len(want1)
    for url in want2.index:
        assert got.loc[url, "extracted_text"] == want2.loc[url, "extracted_text"]
    untouched = want1.index.difference(want2.index)
    assert (
        got.loc[untouched, "extracted_text"]
        == want1.loc[untouched, "extracted_text"]
    ).all()

    # idempotence: a rerun skips both dumps (history unchanged)
    hist2 = ingest_dumps_versioned([("d1", dump1), ("d2", [d2_path])], t)
    assert len(hist2) == len(hist)
    # resume: a new dump processes alone on the rerun
    d3 = generate_pages(str(tmp_path / "d3"), 10, 1, giant_bytes=1 << 16)
    hist3 = ingest_dumps_versioned(
        [("d1", dump1), ("d2", [d2_path]), ("d3", d3)], t
    )
    assert len(hist3) == len(hist) + 1
    want3 = extract_files(d3).to_pandas()
    new_urls = set(want3.url) - set(want1.index)
    assert read_table_at(t).count() == len(want1) + len(new_urls)


def test_notes_survive_expiry(ray_session, tmp_path):
    from textextract_ray.pipelines.tablelog import table_notes

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 10), note="dump:a")
    table_append(t, _ds(10, 20), note="dump:b")
    table_append(t, _ds(20, 30), note="dump:c")
    table_expire(t, keep_last=1, orphan_grace_seconds=0.0)
    # dump:a / dump:b manifests are gone, but idempotence must hold
    assert table_notes(t) == {"dump:a", "dump:b", "dump:c"}


def test_delete_keys_takedown(ray_session, tmp_path):
    from textextract_ray.pipelines.tablelog import (
        _read_manifest,
        table_delete_keys,
    )

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 1000), stats_cols=["k"])
    table_append(t, _ds(5000, 6000), stats_cols=["k"])
    pre = {f["path"] for f in _read_manifest(t, _head_version(t))["files"]}

    v = table_delete_keys(t, "k", [10, 11, 12, 999], note="takedown:req-7")
    got = read_table_at(t).to_pandas()
    assert len(got) == 2000 - 4 and not got.k.isin([10, 11, 12, 999]).any()
    # only the candidate range rewrote; the 5000-5999 files carried
    post = _read_manifest(t, v)["files"]
    assert {f["path"] for f in post} & pre  # carried by reference
    h = table_history(t)
    assert h[h.version == v]["operation"].iloc[0] == "delete"
    # rows still visible at the pre-delete version until expiry
    assert read_table_at(t, v - 1).to_pandas().k.isin([10]).any()
    table_expire(t, keep_last=1, orphan_grace_seconds=0.0)
    with pytest.raises(ValueError, match="not found"):
        read_table_at(t, v - 1)
    # contracts
    with pytest.raises(ValueError, match="empty key set"):
        table_delete_keys(t, "k", [None])


def test_bloom_pruned_merge_for_hash_distributed_keys(ray_session, tmp_path):
    """url-shaped keys span the whole range in every file, so [min,max]
    stats prune nothing — the per-file Bloom sidecars must carry the
    untouched files by reference instead."""
    import hashlib

    import ray.data as rd

    from textextract_ray.pipelines.tablelog import _read_manifest, table_merge

    def hdf(lo, hi):
        ks = [hashlib.md5(str(i).encode()).hexdigest() for i in range(lo, hi)]
        return pd.DataFrame({"k": ks, "txt": [f"row-{i}" for i in range(lo, hi)]})

    t = str(tmp_path / "tbl")
    table_create(t)
    # 4 appends; every file's key range spans ~the whole hex space
    for a in range(4):
        table_append(
            t, rd.from_pandas(hdf(a * 500, a * 500 + 500)),
            stats_cols=["k"], bloom_key="k",
        )
    pre = {f["path"] for f in _read_manifest(t, _head_version(t))["files"]}
    # upsert 3 keys that live in ONE of the four appends
    up = hdf(100, 103)
    up["txt"] = "patched"
    v = table_merge(t, rd.from_pandas(up), "k", stats_cols=["k"], bloom_key="k")
    post = _read_manifest(t, v)["files"]
    carried = {f["path"] for f in post} & pre
    # without the blooms every file overlaps [klo, khi] and rewrites;
    # with them at least the three unaffected appends carry by reference
    assert len(carried) >= 3
    got = read_table_at(t).to_pandas().set_index("k")
    assert len(got) == 2000 and (got.loc[up.k, "txt"] == "patched").all()
    # rewritten + new files kept their sidecars -> a second merge prunes too
    assert all(
        f.get("bloom", {}).get("key") == "k" for f in post
    )
    # bloom-pruned delete as well
    from textextract_ray.pipelines.tablelog import table_delete_keys

    v2 = table_delete_keys(t, "k", list(up.k), bloom_key="k")
    post2 = {f["path"] for f in _read_manifest(t, v2)["files"]}
    assert post2 & {f["path"] for f in post}  # carried by reference again
    assert read_table_at(t).count() == 1997
    # expire keeps sidecars of live files (merge still prunable after GC)
    table_expire(t, keep_last=1, orphan_grace_seconds=0.0)
    import os as _os

    for f in _read_manifest(t, _head_version(t))["files"]:
        if f.get("bloom"):
            assert _os.path.exists(_os.path.join(t, f["bloom"]["path"]))


def test_bloom_sidecars_inherited_without_flag(ray_session, tmp_path):
    """A takedown run WITHOUT bloom_key on a bloom-indexed table must
    not strip the rewritten files' sidecars (future merges would
    degrade to full-table rewrites)."""
    import hashlib

    import ray.data as rd

    from textextract_ray.pipelines.tablelog import _read_manifest, table_delete_keys

    def hdf(lo, hi):
        ks = [hashlib.md5(str(i).encode()).hexdigest() for i in range(lo, hi)]
        return pd.DataFrame({"k": ks, "txt": [f"row-{i}" for i in range(lo, hi)]})

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, rd.from_pandas(hdf(0, 300)), stats_cols=["k"], bloom_key="k")
    doomed = list(hdf(0, 3).k)
    v = table_delete_keys(t, "k", doomed)  # note: NO bloom_key passed
    post = _read_manifest(t, v)["files"]
    assert post and all(f.get("bloom", {}).get("key") == "k" for f in post)
    assert read_table_at(t).count() == 297


def test_read_table_keys_bloom_point_lookup(ray_session, tmp_path):
    import hashlib

    import ray.data as rd

    from textextract_ray.pipelines.tablelog import read_table_keys

    def hdf(lo, hi):
        ks = [hashlib.md5(str(i).encode()).hexdigest() for i in range(lo, hi)]
        return pd.DataFrame({"k": ks, "txt": [f"row-{i}" for i in range(lo, hi)]})

    t = str(tmp_path / "tbl")
    table_create(t)
    for a in range(4):
        table_append(
            t, rd.from_pandas(hdf(a * 200, a * 200 + 200)),
            stats_cols=["k"], bloom_key="k",
        )
    want = hdf(100, 103)
    got = (
        read_table_keys(t, "k", list(want.k))
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want.sort_values("k").reset_index(drop=True))
    fr, ft = read_table_keys.last_pruning
    assert fr < ft  # sidecars actually pruned files
    # column pruning on both read paths
    cols = read_table_keys(t, "k", list(want.k), columns=["k"]).to_pandas()
    assert list(cols.columns) == ["k"] and len(cols) == 3
    sub = read_table_at(t, columns=["txt"]).to_pandas()
    assert list(sub.columns) == ["txt"] and len(sub) == 800
    # miss: typed empty
    miss = read_table_keys(t, "k", ["0" * 32]).to_pandas()
    assert len(miss) == 0
    with pytest.raises(ValueError, match="empty key set"):
        read_table_keys(t, "k", [None])


def test_schema_evolution_add_column(ray_session, tmp_path):
    import ray.data as rd

    from textextract_ray.pipelines.tablelog import table_add_column, table_merge

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 50), stats_cols=["k"])
    v = table_add_column(t, "lang", "en")
    # metadata-only: same files, old rows read back with the default
    got = read_table_at(t).to_pandas()
    assert len(got) == 50 and (got["lang"] == "en").all()
    # pre-evolution version unaffected
    assert "lang" not in read_table_at(t, v - 1).to_pandas().columns

    # appends may now carry the column physically: real values survive
    new = _df(50, 60)
    new["lang"] = "fr"
    table_append(t, rd.from_pandas(new), stats_cols=["k"])
    got = read_table_at(t).to_pandas().sort_values("k").reset_index(drop=True)
    assert len(got) == 60
    assert (got.loc[got.k < 50, "lang"] == "en").all()
    assert (got.loc[got.k >= 50, "lang"] == "fr").all()
    # legacy-shaped appends (without the column) still work too
    table_append(t, _ds(60, 65), stats_cols=["k"])
    got = read_table_at(t).to_pandas()
    assert len(got) == 65 and (got.loc[got.k >= 60, "lang"] == "en").all()

    # projections across mixed physical schemas
    proj = read_table_at(t, columns=["k", "lang"]).to_pandas()
    assert sorted(proj.columns) == ["k", "lang"] and len(proj) == 65
    # merge over the evolved table (copy-on-write keeps each file's schema)
    up = pd.DataFrame({"k": [1], "txt": ["patched"]})
    table_merge(t, rd.from_pandas(up), "k", stats_cols=["k"])
    got = read_table_at(t).to_pandas().set_index("k")
    assert got.loc[1, "txt"] == "patched" and got.loc[1, "lang"] == "en"
    # compaction across mixed schemas: per-signature groups, content intact
    v2 = table_compact(t)
    got2 = read_table_at(t, v2).to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got2[["k", "txt", "lang"]].sort_values("k").reset_index(drop=True),
        read_table_at(t, v2 - 1)
        .to_pandas()[["k", "txt", "lang"]]
        .sort_values("k")
        .reset_index(drop=True),
    )
    # duplicate add rejected; overwrite resets the logical schema
    with pytest.raises(ValueError, match="already exists"):
        table_add_column(t, "lang", "xx")
    table_overwrite(t, _ds(0, 5))
    assert "lang" not in read_table_at(t).to_pandas().columns


def test_review3_regressions(ray_session, tmp_path):
    """Third-pass review regressions: evolved typed-empty reads, compact
    keeping blooms, evolution-aware change feed, physical fill types,
    key_col-less projections, JSON-unsafe defaults."""
    import numpy as np
    import ray.data as rd

    from textextract_ray.pipelines.tablelog import (
        _read_manifest,
        read_table_keys,
        table_add_column,
        table_changes,
    )

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 100), stats_cols=["k"], bloom_key="txt")
    v_add = table_add_column(t, "lang", "en")

    # typed-empty on an evolved table includes the defaulted column
    # (assert on the Dataset schema: Ray's to_pandas of a 0-block
    # dataset drops columns, the dataset itself is correctly typed)
    miss = read_table_keys(t, "txt", ["nope"], columns=["k", "lang"])
    assert miss.schema().names == ["k", "lang"] and miss.count() == 0
    empty = read_table_at(t, filter_col="k", lo=10**9)
    assert "lang" in empty.schema().names and empty.count() == 0

    # projection omitting key_col still filters by it, result excludes it
    got = read_table_keys(t, "txt", ["row-7"], columns=["k"]).to_pandas()
    assert list(got.columns) == ["k"] and list(got["k"]) == [7]

    # physical fill types: append carries lang physically (large_string
    # via pandas) — union with filled groups must not schema-clash
    new = _df(100, 110)
    new["lang"] = "fr"
    table_append(t, rd.from_pandas(new), stats_cols=["k"])
    full = read_table_at(t).to_pandas()
    assert len(full) == 110 and set(full.lang) == {"en", "fr"}

    # change feed across the evolution is defaults-aware on both sides
    added, removed = table_changes(t, v_add)
    a = added.to_pandas()
    assert len(a) == 10 and (a["lang"] == "fr").all()
    assert removed.count() == 0

    # change feed across the COMPACT boundary: the removed side holds
    # mixed physical schemas and must still fill defaults
    v_c = table_compact(t)
    added_c, removed_c = table_changes(t, v_c - 1, v_c)
    rc = removed_c.to_pandas()
    assert len(rc) == 110 and set(rc["lang"]) == {"en", "fr"}
    post = _read_manifest(t, v_c)["files"]
    assert any(f.get("bloom", {}).get("key") == "txt" for f in post)
    read_table_keys(t, "txt", ["row-7"]).to_pandas()
    fr, ft = read_table_keys.last_pruning
    assert fr < ft  # pruning still works post-compact
    # post-compact content parity
    got2 = read_table_at(t).to_pandas().sort_values("k").reset_index(drop=True)
    assert len(got2) == 110 and (got2.loc[got2.k < 100, "lang"] == "en").all()

    # legacy-shaped append still valid after compaction regrouped files
    table_append(t, _ds(200, 205), stats_cols=["k"])
    assert read_table_at(t).count() == 115

    # JSON-unsafe default fails fast with a clean error and no stray tmp
    import os as _os

    with pytest.raises(ValueError, match="column default"):
        table_add_column(t, "ts", np.datetime64("2026-01-01"))
    assert not [
        f for f in _os.listdir(_os.path.join(t, "_log")) if ".tmp-" in f
    ]


def test_expire_persists_notes_before_unlink(ray_session, tmp_path, monkeypatch):
    """ADVICE r4 (medium): table_expire must durably write the expired
    manifests' notes sidecar BEFORE unlinking anything — a crash between
    unlink and notes-write would permanently lose a dump-idempotence
    stamp and let a later ingest re-merge a stale dump."""
    import json

    from textextract_ray.pipelines.tablelog import _NOTES_EXPIRED, _log_dir

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 10), note="dump:aa")
    table_append(t, _ds(10, 20), note="dump:bb")
    table_append(t, _ds(20, 30))

    real_unlink = os.unlink
    log = _log_dir(t)

    def crashing_unlink(path, *a, **kw):
        if str(path).startswith(log) and str(path).endswith(".json"):
            raise OSError("injected crash at manifest unlink")
        return real_unlink(path, *a, **kw)

    monkeypatch.setattr(os, "unlink", crashing_unlink)
    with pytest.raises(OSError, match="injected crash"):
        table_expire(t, keep_last=1, orphan_grace_seconds=0.0)
    monkeypatch.undo()
    # the notes sidecar landed BEFORE the (crashed) unlink
    with open(os.path.join(log, _NOTES_EXPIRED)) as fh:
        persisted = set(json.load(fh))
    assert {"dump:aa", "dump:bb"} <= persisted
    # and the interrupted pass is re-runnable to completion
    table_expire(t, keep_last=1, orphan_grace_seconds=0.0)
    from textextract_ray.pipelines.tablelog import table_notes

    assert {"dump:aa", "dump:bb"} <= table_notes(t)


def test_merge_delete_keyed_on_evolved_column(ray_session, tmp_path):
    """ADVICE r4: a merge/delete keyed on a schema-evolved (defaulted)
    column must give correct row semantics for legacy files that lack
    the column physically — drop the whole file when the default is in
    the key set, carry it otherwise — never a raw KeyError task death."""
    import ray.data as rd

    from textextract_ray.pipelines.tablelog import (
        table_add_column,
        table_delete_keys,
    )

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 30))          # legacy: no lang column
    table_add_column(t, "lang", "en")    # metadata-only default
    phys = _df(30, 40)
    phys["lang"] = "fr"
    table_append(t, rd.from_pandas(phys))

    # default NOT in key set: legacy file carries by reference
    table_delete_keys(t, "lang", ["fr"])
    got = _sorted(read_table_at(t).to_pandas())
    assert len(got) == 30 and (got["lang"] == "en").all()

    # default IN the key set: legacy files drop whole
    table_append(t, rd.from_pandas(phys))  # bring fr rows back
    table_delete_keys(t, "lang", ["en"])
    got = _sorted(read_table_at(t).to_pandas())
    assert len(got) == 10 and (got["lang"] == "fr").all()

    # file lacking the key column with NO declared default: clean error,
    # not a worker KeyError (crafted manifest — the commit path itself
    # refuses to create this shape)
    from textextract_ray.pipelines.tablelog import _read_manifest

    t2 = str(tmp_path / "tbl2")
    table_create(t2)
    table_append(t2, _ds(0, 5))
    h = _head_version(t2)
    m = _read_manifest(t2, h)
    m2 = {
        "version": h + 1,
        "parent": h,
        "operation": "append",
        "files": m["files"],
    }
    _commit(t2, h + 1, m2)
    with pytest.raises(ValueError, match="declares no default"):
        table_delete_keys(t2, "missing_col", ["x"])


def test_append_type_mismatch_rejected(ray_session, tmp_path):
    """ADVICE r4: same column names, different Arrow types must be
    rejected AT COMMIT — not surface later as a compaction/union
    failure far from the offending writer."""
    import ray.data as rd

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 10))  # k: int64, txt: string
    bad = _df(10, 20)
    bad["k"] = bad["k"].astype(str)  # k: string — same names, wrong type
    with pytest.raises(ValueError, match="types mismatch"):
        table_append(t, rd.from_pandas(bad))
    # matching types still commit fine
    v = table_append(t, _ds(10, 20))
    assert len(read_table_at(t, v).to_pandas()) == 20
    # manifests record per-column types
    from textextract_ray.pipelines.tablelog import _read_manifest

    m = _read_manifest(t, v)
    assert all(f["types"]["k"] == "int64" for f in m["files"])


def test_run_job_versioned_kill_resume_time_travel(ray_session, tmp_path):
    """VERDICT r4 item 6: the headline job commits into the table log —
    kill mid-job, resume skips committed partitions, every partition is
    a time-travelable version, and merge-by-url makes the table
    exactly-once per url globally."""
    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines.extract_pipeline import run_job_versioned
    from textextract_ray.pipelines.tablelog import (
        read_table_at,
        table_changes,
        table_history,
    )

    files = generate_pages(str(tmp_path / "pages"), 200, 4, giant_bytes=1 << 17)
    t = str(tmp_path / "tbl")

    # kill before partition 2: partitions 0-1 commit as versions
    with pytest.raises(RuntimeError, match="fault injection"):
        run_job_versioned(files, t, shards_per_partition=1, fail_at_partition=2)
    hist = table_history(t)
    notes = [n for n in hist["note"].dropna() if n.startswith("job-part:")]
    assert len(notes) == 2

    # resume completes the remaining partitions only
    report = run_job_versioned(files, t, shards_per_partition=1)
    assert len(report) == 4 and int(report["docs"].sum()) > 0
    hist = table_history(t)
    notes = [n for n in hist["note"].dropna() if n.startswith("job-part:")]
    assert len(notes) == 4
    assert len({n.split(":")[1] for n in notes}) == 4  # one per pid

    # rerun on complete output: pure no-op (head unmoved), same counters
    head = int(hist["version"].max())
    report2 = run_job_versioned(files, t, shards_per_partition=1)
    assert int(table_history(t)["version"].max()) == head
    stable = ["partition_id", "docs", "bytes_in", "ok_count"]
    pd.testing.assert_frame_equal(
        report[stable], report2[stable], check_dtype=False
    )

    # exactly-once per url globally (fixture F9 plants cross-shard dups)
    full = read_table_at(t).to_pandas()
    assert full["url"].is_unique
    # exactly ONE append (the first partition), every later one a merge
    # — two overlapped committers racing head==0 would both append and
    # silently drop the cross-partition url merge (r5 overlap review)
    ops = [
        hist.loc[hist["note"] == n, "operation"].iloc[0] for n in notes
    ]
    assert ops.count("append") == 1 and set(ops) <= {"append", "merge"}

    # time travel: the snapshot after partition 0's commit is intact
    v1 = int(hist.loc[hist["note"] == notes[0], "version"].iloc[0])
    snap = read_table_at(t, v1).to_pandas()
    assert 0 < len(snap) < len(full)
    # change feed between two job versions yields the partition's rows
    added, removed = table_changes(t, v1, v1 + 1)
    assert added.count() > 0

    # re-partitioned rerun fails loudly (lineage guard)
    with pytest.raises(ValueError, match="different shard list"):
        run_job_versioned(files, t, shards_per_partition=2)


def test_run_job_versioned_extractor_upgrade_reextracts(
    ray_session, tmp_path, monkeypatch
):
    """A parser upgrade must re-extract committed partitions on resume:
    same shard hash + older version note -> re-extract + merge, latest
    rows win, pre-upgrade snapshot stays time-travelable."""
    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines.extract_pipeline import run_job_versioned
    from textextract_ray.pipelines.tablelog import read_table_at, table_history

    files = generate_pages(str(tmp_path / "pages"), 100, 2, giant_bytes=1 << 16)
    t = str(tmp_path / "tbl")
    run_job_versioned(files, t, shards_per_partition=1)
    head1 = int(table_history(t)["version"].max())
    n1 = read_table_at(t).count()

    # same version rerun: pure no-op
    run_job_versioned(files, t, shards_per_partition=1)
    assert int(table_history(t)["version"].max()) == head1

    # simulate a parser upgrade
    import textextract_ray

    monkeypatch.setattr(textextract_ray, "EXTRACTOR_VERSION", "1.0.1")
    report = run_job_versioned(files, t, shards_per_partition=1)
    hist = table_history(t)
    assert int(hist["version"].max()) == head1 + 2  # both partitions re-ran
    notes = [n for n in hist["note"].dropna() if n.startswith("job-part:")]
    assert sum(":v1.0.1:" in n for n in notes) == 2
    assert int(report["docs"].sum()) > 0
    # merge semantics: still exactly-once per url, same logical content
    full = read_table_at(t).to_pandas()
    assert full["url"].is_unique and len(full) == n1
    # pre-upgrade snapshot intact
    assert read_table_at(t, head1).count() == n1
    # upgraded rerun at the new version: no-op again
    run_job_versioned(files, t, shards_per_partition=1)
    assert int(table_history(t)["version"].max()) == head1 + 2


def test_run_job_versioned_resume_after_expiry(ray_session, tmp_path):
    """Retention GC may expire job manifests (counters ride manifest
    meta) while the note stamps survive — a resume must still skip the
    partitions (no re-extraction) and the report must degrade to
    zero-counter rows, not crash."""
    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines.extract_pipeline import run_job_versioned
    from textextract_ray.pipelines.tablelog import table_expire, table_history

    files = generate_pages(str(tmp_path / "pages"), 60, 2, giant_bytes=1 << 15)
    t = str(tmp_path / "tbl")
    run_job_versioned(files, t, shards_per_partition=1)
    head = int(table_history(t)["version"].max())
    table_expire(t, keep_last=1, orphan_grace_seconds=0.0)

    report = run_job_versioned(files, t, shards_per_partition=1)
    assert int(table_history(t)["version"].max()) == head  # nothing re-ran
    assert len(report) == 2
    # the expired partition's counters degrade to zeros; the retained
    # head partition keeps real counters via its manifest meta
    assert int(report["docs"].max()) > 0
    assert int(report["docs"].min()) == 0


def test_run_job_versioned_auto_sizing_resume_survives_expiry(
    ray_session, tmp_path, monkeypatch
):
    """Auto-sized (shards_per_partition=None) versioned jobs must
    resume with the ORIGINAL sizing even after retention GC expired the
    job manifests and the cluster size changed — the sizing rides the
    GC-surviving note stamps, not just manifest meta."""
    from textextract_ray.datagen import generate_pages
    from textextract_ray.pipelines import extract_pipeline as ep
    from textextract_ray.pipelines.tablelog import table_expire, table_history

    files = generate_pages(str(tmp_path / "pages"), 80, 4, giant_bytes=1 << 15)
    t = str(tmp_path / "tbl")
    # pin auto-sizing to 1 for the first (partial) run
    monkeypatch.setattr(ep, "_auto_shards_per_partition", lambda fs: 1)
    with pytest.raises(RuntimeError, match="fault injection"):
        ep.run_job_versioned(files, t, shards_per_partition=None, fail_at_partition=2)
    table_expire(t, keep_last=1, orphan_grace_seconds=0.0)
    # "cluster changed": auto would now pick a DIFFERENT sizing — the
    # recorded one must win or the lineage guard would hard-fail
    monkeypatch.setattr(ep, "_auto_shards_per_partition", lambda fs: 2)
    report = ep.run_job_versioned(files, t, shards_per_partition=None)
    assert len(report) == 4  # original sizing (1 shard/partition) kept
    notes = [
        n for n in table_history(t)["note"].dropna() if n.startswith("job-part:")
    ]
    assert all(n.split(":")[4] == "s1" for n in notes)


def test_append_type_guard_covers_evolved_columns(ray_session, tmp_path):
    """Pass-3 review repro: with a legacy file lacking an evolved
    column, a type-mismatched append of that column must STILL be
    rejected — types fold across the whole table, not just the first
    name-matching file."""
    import ray.data as rd

    from textextract_ray.pipelines.tablelog import table_add_column

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 10))            # legacy: {k, txt}
    table_add_column(t, "lang", "en")
    ok = _df(10, 20)
    ok["lang"] = "fr"
    table_append(t, rd.from_pandas(ok))    # physical lang: string
    bad = _df(20, 30)
    bad["lang"] = 7                        # physical lang: int64
    with pytest.raises(ValueError, match="types mismatch"):
        table_append(t, rd.from_pandas(bad))
    # compaction still sound after the rejected commit
    table_compact(t)
    got = _sorted(read_table_at(t).to_pandas())
    assert len(got) == 20 and set(got["lang"]) == {"en", "fr"}

    # no physical occurrence at all: the evolved default's inferred
    # type is the contract
    t2 = str(tmp_path / "tbl2")
    table_create(t2)
    table_append(t2, _ds(0, 5))
    table_add_column(t2, "score", 1.5)     # double default, never physical
    bad2 = _df(5, 10)
    bad2["score"] = "high"
    with pytest.raises(ValueError, match="types mismatch"):
        table_append(t2, rd.from_pandas(bad2))


def test_tags_pin_read_and_survive_expire(ray_session, tmp_path):
    """Named tags: pin, read by tag, duplicate/force semantics, and —
    the point of the feature — a tagged version survives retention GC
    fully readable (manifest AND data) while untagged old versions
    expire; untagging makes it expirable again."""
    from textextract_ray.pipelines.tablelog import (
        table_tag,
        table_tags,
        table_untag,
    )

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 50))        # v1
    table_overwrite(t, _ds(100, 160))  # v2
    assert table_tag(t, "dataset-v1.0", 1) == 1
    table_overwrite(t, _ds(200, 210))  # v3
    table_overwrite(t, _ds(300, 305))  # v4
    assert table_tag(t, "latest-good") == 4  # defaults to head
    assert table_tags(t) == {"dataset-v1.0": 1, "latest-good": 4}

    # read by tag == read by version; tag+version together rejected
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, tag="dataset-v1.0").to_pandas()),
        _sorted(_df(0, 50)),
    )
    with pytest.raises(ValueError):
        read_table_at(t, 2, tag="dataset-v1.0")
    with pytest.raises(ValueError):
        read_table_at(t, tag="nope")

    # duplicate tag raises; force re-points
    with pytest.raises(ValueError):
        table_tag(t, "dataset-v1.0", 2)
    assert table_tag(t, "dataset-v1.0", 1, force=True) == 1

    # retention: keep_last=1 would normally keep only v4 — the tagged
    # v1 must survive with its data; untagged v2/v3 expire
    rep = table_expire(t, keep_last=1, orphan_grace_seconds=0)
    assert set(rep["kept_versions"]) == {1, 4}
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, tag="dataset-v1.0").to_pandas()),
        _sorted(_df(0, 50)),
    )
    with pytest.raises(ValueError):
        read_table_at(t, 2)

    # tagging an expired version is a clean error
    with pytest.raises(ValueError):
        table_tag(t, "too-late", 2)

    # untag -> expirable again; unknown untag raises
    table_untag(t, "dataset-v1.0")
    with pytest.raises(ValueError):
        table_untag(t, "dataset-v1.0")
    rep = table_expire(t, keep_last=1, orphan_grace_seconds=0)
    assert set(rep["kept_versions"]) == {4}
    with pytest.raises(ValueError):
        read_table_at(t, 1)
    # head unaffected throughout
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t).to_pandas()), _sorted(_df(300, 305))
    )


def test_tag_survives_compaction_expire(ray_session, tmp_path):
    """Compaction rewrites the head into new files; a tag pinned to a
    PRE-compaction version keeps its original files through expire."""
    from textextract_ray.pipelines.tablelog import table_tag

    t = str(tmp_path / "tbl")
    table_create(t)
    for lo in range(0, 400, 100):
        table_append(t, _ds(lo, lo + 100))  # v1..v4
    table_tag(t, "pre-compact")  # v4
    v5 = table_compact(t)
    assert v5 == 5
    table_expire(t, keep_last=1, orphan_grace_seconds=0)
    got = _sorted(read_table_at(t, tag="pre-compact").to_pandas())
    pd.testing.assert_frame_equal(got, _sorted(_df(0, 400)))


def test_read_table_keys_by_tag(ray_session, tmp_path):
    from textextract_ray.pipelines.tablelog import read_table_keys, table_tag

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 50), stats_cols=["k"])
    table_tag(t, "rel")
    table_overwrite(t, _ds(100, 110))
    got = read_table_keys(t, "k", [3, 7], tag="rel").to_pandas()
    assert sorted(got["k"]) == [3, 7]
    with pytest.raises(ValueError):
        read_table_keys(t, "k", [3], version=1, tag="rel")


def test_tag_expire_fences(ray_session, tmp_path, monkeypatch):
    """Both sides of the tag-vs-expire TOCTOU fence: (a) expire replans
    when a tag lands during its read-only pass (the late tag pins its
    version); (b) table_tag withdraws itself when the manifest vanishes
    under it (expire won the race) instead of leaving a dangling pin."""
    import textextract_ray.pipelines.tablelog as tl

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 30))       # v1
    table_overwrite(t, _ds(50, 60))   # v2
    table_overwrite(t, _ds(70, 80))   # v3

    # (a) a tag that lands BETWEEN expire's first tag read and its
    # replan check must be honored: inject it via the table_tags seam
    real_tags = tl.table_tags
    calls = {"n": 0}

    def racing_tags(table_dir):
        calls["n"] += 1
        if calls["n"] == 2 and not real_tags(table_dir):
            # simulate a tag whose lock pre-check passed just before
            # expire acquired the lock (table_tag itself would WAIT on
            # the lock): write the tag file directly
            import json as _json

            with open(tl._tag_path(table_dir, "late"), "w") as fh:
                _json.dump({"version": 1}, fh)
        return real_tags(table_dir)

    monkeypatch.setattr(tl, "table_tags", racing_tags)
    rep = tl.table_expire(t, keep_last=1, orphan_grace_seconds=0)
    monkeypatch.undo()
    assert 1 in rep["kept_versions"]  # the late tag pinned v1
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, tag="late").to_pandas()), _sorted(_df(0, 30))
    )

    # (b) expire deleting the manifest while the tag file is being
    # created: the tag must withdraw and raise, not dangle
    from textextract_ray.pipelines.tablelog import _log_dir, _manifest_name

    tl.table_untag(t, "late")
    tl.table_expire(t, keep_last=1, orphan_grace_seconds=0)  # only v3 left
    real_link = os.link

    def link_then_expire(src, dst):
        real_link(src, dst)
        # simulate expire winning immediately after the tag lands
        os.unlink(os.path.join(_log_dir(t), _manifest_name(3)))

    monkeypatch.setattr(os, "link", link_then_expire)
    with pytest.raises(ValueError, match="expired while tagging"):
        tl.table_tag(t, "doomed", 3)
    monkeypatch.undo()
    assert "doomed" not in tl.table_tags(t)  # withdrawn, no dangling pin


def test_restore_rolls_back_content_and_schema(ray_session, tmp_path):
    """table_restore commits an old snapshot's content (and defaults
    map) as a NEW head with files carried by reference; intervening
    history stays time-travelable, and a tagged source works too."""
    from textextract_ray.pipelines.tablelog import (
        table_add_column,
        table_history,
        table_restore,
        table_tag,
    )

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 40))        # v1
    table_tag(t, "good")
    table_overwrite(t, _ds(100, 105))  # v2 (the "bad" overwrite)
    table_add_column(t, "flag", 7)     # v3: evolved schema

    v = table_restore(t, tag="good")
    assert v == 4
    got = _sorted(read_table_at(t).to_pandas())
    pd.testing.assert_frame_equal(got, _sorted(_df(0, 40)))
    assert "flag" not in got.columns  # schema restored to the snapshot's
    # rolled-past versions still time-travel
    assert sorted(read_table_at(t, 2).to_pandas()["k"]) == list(range(100, 105))
    hist = table_history(t)
    assert hist.loc[hist["version"] == 4, "operation"].iloc[0] == "restore"
    assert hist.loc[hist["version"] == 4, "note"].iloc[0] == "restore:v1"
    # restore by explicit version of the evolved head: defaults return
    v5 = table_restore(t, 3)
    out = read_table_at(t).to_pandas()
    assert v5 == 5 and set(out["flag"]) == {7}
    # a restored head survives expiry of its source version (files are
    # referenced by the NEW manifest)
    from textextract_ray.pipelines.tablelog import table_untag

    table_untag(t, "good")
    table_expire(t, keep_last=1, orphan_grace_seconds=0)
    out = _sorted(read_table_at(t).to_pandas().drop(columns=["flag"]))
    pd.testing.assert_frame_equal(out, _sorted(_df(100, 105)))
    with pytest.raises(ValueError):
        table_restore(t, tag="nope")


def test_expire_dry_run_plans_without_touching(ray_session, tmp_path):
    """dry_run returns the exact plan (kept, expired, would-delete
    count) and changes NOTHING; the real sweep then deletes exactly
    the planned count."""
    from textextract_ray.pipelines.tablelog import table_tag

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 30))       # v1
    table_overwrite(t, _ds(50, 60))   # v2
    table_overwrite(t, _ds(70, 80))   # v3
    table_tag(t, "keepme", 1)

    plan = table_expire(t, keep_last=1, orphan_grace_seconds=0, dry_run=True)
    assert set(plan["kept_versions"]) == {1, 3}
    assert plan["expired_versions"] == [0, 2]  # the empty create manifest expires too
    assert plan["deleted_files"] > 0
    # nothing touched: v2 still reads
    assert sorted(read_table_at(t, 2).to_pandas()["k"]) == list(range(50, 60))
    real = table_expire(t, keep_last=1, orphan_grace_seconds=0)
    assert real["deleted_files"] == plan["deleted_files"]
    assert set(real["kept_versions"]) == {1, 3}
    with pytest.raises(ValueError):
        read_table_at(t, 2)


def test_expire_dry_run_skips_manifest_expired_under_it(ray_session, tmp_path, monkeypatch):
    """dry_run takes no lock, so a concurrent real expire can unlink
    manifests between the dry run's listdir and its reads. The dry run
    must skip the vanished manifests, not crash with FileNotFoundError."""
    import textextract_ray.pipelines.tablelog as tl

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 30))       # v1
    table_overwrite(t, _ds(50, 60))   # v2
    table_overwrite(t, _ds(70, 80))   # v3
    real_locked = tl._expire_locked
    fired = []

    def racing_locked(table_dir, log, cutoff, tagged, grace, dry_run, names):
        def names_then_real_expire():
            listed = names()
            if dry_run and not fired:
                # the real sweep lands right after the dry run's listdir
                fired.append(table_expire(t, keep_last=1, orphan_grace_seconds=0))
            return listed

        return real_locked(
            table_dir, log, cutoff, tagged, grace, dry_run,
            names_then_real_expire if dry_run else names,
        )

    monkeypatch.setattr(tl, "_expire_locked", racing_locked)
    plan = table_expire(t, keep_last=2, orphan_grace_seconds=0, dry_run=True)
    assert fired and fired[0]["kept_versions"] == [3]
    # v0-v2 vanished under the dry run: they are in no plan any more
    assert plan["kept_versions"] == [3]
    assert plan["expired_versions"] == []
    assert plan["deleted_files"] == 0


def test_restore_expire_fences(ray_session, tmp_path, monkeypatch):
    """Restore-vs-expire: (a) a restore landing mid-expire forces a
    replan that keeps the re-referenced files; (b) a restore whose
    source files were deleted under it fails loudly instead of
    returning a head that points at deleted data."""
    import textextract_ray.pipelines.tablelog as tl

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 30))       # v1
    table_overwrite(t, _ds(50, 60))   # v2
    table_overwrite(t, _ds(70, 80))   # v3

    # (a) a restore manifest landing at expire's final fence read —
    # the window where a restore passed its lock pre-check just before
    # expire took the lock. Inject the bare commit (the pre-check
    # already happened in that scenario): the fence must replan and
    # keep v1's files. A full table_restore call at this point is
    # REFUSED by the lock (also asserted).
    import json as _json
    import os as _os

    real_tags = tl.table_tags
    calls = {"n": 0}

    def tags_with_restore(table_dir):
        calls["n"] += 1
        if calls["n"] == 3:
            with pytest.raises(RuntimeError, match="in progress"):
                tl.table_restore(table_dir, 1)  # lock refuses mid-expire
            src = tl._read_manifest(table_dir, 1)
            h = tl._head_version(table_dir)
            tl._commit(table_dir, h + 1, {
                "version": h + 1, "parent": h, "operation": "restore",
                "note": "restore:v1", "files": src["files"],
            })
        return real_tags(table_dir)

    monkeypatch.setattr(tl, "table_tags", tags_with_restore)
    tl.table_expire(t, keep_last=1, orphan_grace_seconds=0)
    monkeypatch.undo()
    # the restored head (v4 = v1's content) must read intact
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t).to_pandas()), _sorted(_df(0, 30))
    )

    # (b) files deleted between restore's manifest read and commit:
    # simulate by running the REAL expire inside the commit step
    table_overwrite(t, _ds(90, 95))   # v5: make v4 expirable
    real_commit = tl._commit

    def commit_after_expire(table_dir, version, man):
        if man.get("operation") == "restore":
            monkeypatch.setattr(tl, "_commit", real_commit)
            tl.table_expire(t, keep_last=1, orphan_grace_seconds=0)
        return real_commit(table_dir, version, man)

    monkeypatch.setattr(tl, "_commit", commit_after_expire)
    with pytest.raises(RuntimeError, match="raced a concurrent"):
        tl.table_restore(t, 4)
    monkeypatch.undo()


def test_expire_lock_steal_is_atomic(ray_session, tmp_path, monkeypatch):
    """Two expires stealing one stale (crashed-holder) lock: the one
    that checks staleness and then finds a co-stealer's fresh lock, or
    no lock, in its place must back off and leave that lock alone,
    not delete it and run a second destructive phase beside it."""
    import time

    import textextract_ray.pipelines.tablelog as tl

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 30))       # v1
    table_overwrite(t, _ds(50, 60))   # v2
    lock = tl._expire_lock_path(t)
    crashed_at = time.time() - 2 * tl.EXPIRE_LOCK_STALE_SECONDS

    def plant_stale_lock():
        with open(lock, "w") as fh:
            fh.write("crashed")
        os.utime(lock, (crashed_at, crashed_at))

    def leftovers():
        return [n for n in os.listdir(tl._log_dir(t)) if ".stale-" in n or ".tmp-" in n]

    real_live = tl._live_expire_lock

    def co_stealer(act):
        # the co-stealer acts right after this expire's staleness check
        def live(table_dir):
            is_live = real_live(table_dir)
            if not is_live and os.path.exists(lock):
                act()
            return is_live
        return live

    # (a) the co-stealer already holds a fresh lock: it must survive
    def steal_done():
        os.unlink(lock)
        with open(lock, "w") as fh:
            fh.write("co-stealer")

    plant_stale_lock()
    monkeypatch.setattr(tl, "_live_expire_lock", co_stealer(steal_done))
    with pytest.raises(RuntimeError, match="another table_expire"):
        table_expire(t, keep_last=1, orphan_grace_seconds=0)
    monkeypatch.undo()
    with open(lock) as fh:
        assert fh.read() == "co-stealer"
    assert leftovers() == []
    pd.testing.assert_frame_equal(  # nothing was expired
        _sorted(read_table_at(t, 1).to_pandas()), _sorted(_df(0, 30))
    )

    # (b) the co-stealer moved the stale lock aside first
    plant_stale_lock()
    moved = lock + ".moved"
    monkeypatch.setattr(tl, "_live_expire_lock", co_stealer(lambda: os.rename(lock, moved)))
    with pytest.raises(RuntimeError, match="another table_expire"):
        table_expire(t, keep_last=1, orphan_grace_seconds=0)
    monkeypatch.undo()
    os.unlink(moved)
    assert leftovers() == [] and not os.path.exists(lock)

    # (c) uncontended: the stale lock is stolen, the expire runs and
    # releases its own lock
    plant_stale_lock()
    rep = table_expire(t, keep_last=1, orphan_grace_seconds=0)
    assert rep["kept_versions"] == [2]
    assert leftovers() == [] and not os.path.exists(lock)


def test_timestamp_time_travel(ray_session, tmp_path):
    """read_table_at(as_of=) resolves the latest version committed at
    or before that wall time (manifests now stamp `ts` at commit)."""
    import time

    from textextract_ray.pipelines.tablelog import table_history

    t = str(tmp_path / "tbl")
    table_create(t)
    table_append(t, _ds(0, 20))       # v1
    time.sleep(0.05)
    t_mid = time.time()
    time.sleep(0.05)
    table_overwrite(t, _ds(50, 55))   # v2

    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, as_of=t_mid).to_pandas()), _sorted(_df(0, 20))
    )
    pd.testing.assert_frame_equal(
        _sorted(read_table_at(t, as_of=time.time()).to_pandas()),
        _sorted(_df(50, 55)),
    )
    with pytest.raises(ValueError):
        read_table_at(t, as_of=t_mid - 100)  # before the table existed
    with pytest.raises(ValueError):
        read_table_at(t, 1, as_of=t_mid)  # mutually exclusive
    hist = table_history(t)
    assert hist["ts"].notna().all()
    assert hist["ts"].is_monotonic_increasing


def test_uri_table_paths_refused_without_local_writes(tmp_path, monkeypatch, fixture_pages):
    """A scheme:// table path is refused by every entry point: the table
    log is local-only, and os.* would otherwise create ./s3:/bucket/t
    under the working directory."""
    import subprocess
    import sys

    from textextract_ray.pipelines.extract_pipeline import run_job_versioned

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.chdir(tmp_path)
    uri = "s3://bucket/t"
    with pytest.raises(ValueError, match="URI"):
        table_create(uri)
    with pytest.raises(ValueError, match="URI"):
        run_job_versioned(fixture_pages, uri)
    env = dict(os.environ, RAY_GRAFT_CPUS="1", PYTHONPATH=repo)
    pages = os.path.dirname(fixture_pages[0])
    for argv in (
        ["extract", "--input", pages, "--table", uri],
        ["ingest", "--dump", f"d1={pages}", "--table", uri],
    ):
        r = subprocess.run(
            [sys.executable, "-m", "textextract_ray", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=240,
        )
        assert r.returncode == 2, (argv, r.stderr[-2000:])
        assert r.stderr.startswith("error:") and "URI" in r.stderr, r.stderr
    assert not any(p.name.startswith("s3:") for p in tmp_path.rglob("*"))
