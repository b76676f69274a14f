"""HTTP source end-to-end (VERDICT round-3 item 6): serve the fixture
shards from a localhost ``http.server``, then read → extract → write
against ``http://127.0.0.1`` input. The reference streams its inputs
over HTTP with retry (src/updater.py:105-120,545-715); the Ray shape is
worker-side per-shard fetch (each extract task downloads and parses its
own url), so bytes scale with the cluster and never route through the
driver.
"""

from __future__ import annotations

import os
import threading

import pytest


@pytest.fixture(scope="module")
def http_fixture_server(fixture_pages):
    """Serve the fixture shard directory over localhost HTTP."""
    import http.server
    import socketserver

    root = os.path.dirname(fixture_pages[0])

    class Handler(http.server.SimpleHTTPRequestHandler):
        def __init__(self, *a, **kw):
            super().__init__(*a, directory=root, **kw)

        def log_message(self, *a):  # quiet
            pass

    with socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler) as srv:
        port = srv.server_address[1]
        t = threading.Thread(target=srv.serve_forever, daemon=True)
        t.start()
        urls = [
            f"http://127.0.0.1:{port}/{os.path.basename(p)}"
            for p in fixture_pages
        ]
        yield urls
        srv.shutdown()


def test_http_read_matches_local(fixture_pages, http_fixture_server):
    """Each shard read over HTTP (``open_shard``: one buffered GET with
    the retry ladder, the read an extract task runs for an http shard)
    holds exactly the local shard's pages, every column."""
    import pyarrow.parquet as pq

    from textextract_ray.sources import open_shard

    for url, path in zip(http_fixture_server, fixture_pages):
        assert pq.read_table(open_shard(url)).equals(pq.read_table(path))


def test_http_extract_write_e2e(ray_session, http_fixture_server, tmp_path):
    """read(http) -> extract -> write_parquet over http shard urls
    writes one row per page."""
    import ray.data as rd

    from textextract_ray.pipelines.extract_pipeline import extract_files

    out = str(tmp_path / "http_out")
    extract_files(http_fixture_server, dedup=False).write_parquet(out)

    written = (
        rd.read_parquet(out).to_pandas().sort_values("url").reset_index(drop=True)
    )
    assert len(written) == 200
    assert (written["status"].isin(["ok", "empty", "invalid", "unsupported"])).all()
    assert (written.loc[written["status"] == "ok", "extracted_text"].str.len() > 0).all()


def test_http_retry_ladder(monkeypatch):
    """_http_get retries transient failures 3x with backoff and then
    re-raises (no Ray needed — pure function)."""
    import urllib.error

    from textextract_ray import sources

    calls = {"n": 0}

    class FakeResp:
        def __enter__(self):
            return self

        def __exit__(self, *a):
            return False

        def read(self, n):
            return b""

    def flaky(url):
        calls["n"] += 1
        if calls["n"] < 3:
            raise urllib.error.URLError("connection reset")
        return FakeResp()

    monkeypatch.setattr("urllib.request.urlopen", flaky)
    # speed: no real sleeps
    monkeypatch.setattr("time.sleep", lambda s: None)
    assert sources._http_get("http://x/", backoff=0.0) == b""
    assert calls["n"] == 3

    calls["n"] = 0

    def dead(url):
        calls["n"] += 1
        raise urllib.error.URLError("refused")

    monkeypatch.setattr("urllib.request.urlopen", dead)
    with pytest.raises(urllib.error.URLError):
        sources._http_get("http://x/", backoff=0.0)
    assert calls["n"] == 3


def test_fsspec_scheme_fallback_read(ray_session, fixture_pages):
    """Object-store-shaped scheme e2e: ``local://`` resolves through
    the fsspec fallback (pyarrow has no native driver for it — the
    same route an s3/gcs-like scheme without a pyarrow driver takes),
    wrapped as a PyFileSystem and read inside worker processes."""
    import pyarrow.parquet as pq
    import ray
    from pyarrow.fs import PyFileSystem

    from textextract_ray.sources import _fs_from_uri, open_shard

    uris = [f"local://{p}" for p in fixture_pages]
    assert isinstance(_fs_from_uri(uris[0])[0], PyFileSystem)

    @ray.remote
    def shard_urls(uri):
        with open_shard(uri) as f:
            return pq.read_table(f, columns=["url"])["url"].to_pylist()

    got = ray.get([shard_urls.remote(u) for u in uris])
    want = [pq.read_table(p, columns=["url"])["url"].to_pylist() for p in fixture_pages]
    assert got == want and sum(map(len, got)) > 0


def test_fsspec_scheme_fallback_directory_expansion(ray_session, fixture_pages):
    import pyarrow.parquet as pq

    from textextract_ray.pipelines.extract_pipeline import extract_files

    root = os.path.dirname(fixture_pages[0])
    got = extract_files([f"local://{root}"], dedup=False).to_pandas()["url"]
    want = [u for p in fixture_pages for u in pq.read_table(p)["url"].to_pylist()]
    assert sorted(got) == sorted(want)


def test_fused_http_matches_local(ray_session, fixture_pages, http_fixture_server):
    """extract_files over http:// shard urls (each extract task streams
    its own shard with the retry ladder, decodes and extracts in-process)
    is byte-identical to the local-path fused run — the VERDICT round-4
    rank-1 item: the fused zero-plasma path now covers remote shards."""
    import pandas as pd

    from textextract_ray.pipelines.extract_pipeline import extract_files

    drop = ["processing_time_ms"]
    local = (
        extract_files(list(fixture_pages), batch_size=32)
        .to_pandas()
        .drop(columns=drop)
        .sort_values("url")
        .reset_index(drop=True)
    )
    over_http = (
        extract_files(list(http_fixture_server), batch_size=32)
        .to_pandas()
        .drop(columns=drop)
        .sort_values("url")
        .reset_index(drop=True)
    )
    spanify = lambda s: tuple(tuple(sorted(d.items())) for d in s)
    local["spans"] = local["spans"].map(spanify)
    over_http["spans"] = over_http["spans"].map(spanify)
    pd.testing.assert_frame_equal(local, over_http)


def test_fused_http_oversized_shards_skip_prefetch(
    ray_session, fixture_pages, http_fixture_server, monkeypatch
):
    """Shards over the prefetch cap (or unprobeable servers) must fall
    back to one shard per task — the one-buffer heap contract wins —
    and output stays byte-identical."""
    from textextract_ray.pipelines import extract_pipeline as ep

    monkeypatch.setattr(ep, "_HTTP_PREFETCH_MAX", 1)  # everything oversized
    ep._http_size_cache.clear()  # probe results are memoized per url
    a = (
        ep.extract_files(list(http_fixture_server), dedup=False)
        .to_pandas()[["url", "extracted_text"]]
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        ep.extract_files(list(fixture_pages), dedup=False)
        .to_pandas()[["url", "extracted_text"]]
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert a.equals(b)
    assert not ep._http_size_ok(http_fixture_server[0])  # cap enforced
    monkeypatch.undo()
    ep._http_size_cache.clear()
    assert ep._http_size_ok(http_fixture_server[0])  # normal cap admits
