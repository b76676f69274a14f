"""HTTP source end-to-end (VERDICT round-3 item 6): serve the fixture
shards from a localhost ``http.server``, then read → extract → write
against ``http://127.0.0.1`` input. The reference streams its inputs
over HTTP with retry (src/updater.py:105-120,545-715); the Ray shape is
worker-side per-shard fetch (each read task downloads and parses its own
url), so bytes scale with the cluster and never route through the
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


def test_http_read_matches_local(ray_session, fixture_pages, http_fixture_server):
    from textextract_ray.sources import read_pages

    local = (
        read_pages(fixture_pages).to_pandas().sort_values("url").reset_index(drop=True)
    )
    over_http = (
        read_pages(http_fixture_server)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert local.equals(over_http)

    # column pruning at parse time
    pruned = read_pages(http_fixture_server, columns=["url", "lang"])
    assert set(pruned.schema().names) == {"url", "lang"}

    # single-url string form
    one = read_pages(http_fixture_server[0]).to_pandas()
    shard0 = read_pages(fixture_pages[0]).to_pandas()
    assert len(one) == len(shard0)


def test_http_extract_write_e2e(ray_session, http_fixture_server, tmp_path):
    """read(http) -> actor-pool extract -> write_parquet, byte-identical
    to the local-path pipeline on the same shards."""
    import ray.data as rd

    from textextract_ray.pipelines.extract_pipeline import extract_dataset
    from textextract_ray.sources import read_pages

    out = str(tmp_path / "http_out")
    extracted = extract_dataset(read_pages(http_fixture_server))
    extracted.write_parquet(out)

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
    wrapped as a PyFileSystem and read across worker processes."""
    from textextract_ray.sources import read_pages

    uris = [f"local://{p}" for p in fixture_pages]
    got = read_pages(uris, columns=["url", "lang"]).to_pandas()
    want = read_pages(list(fixture_pages), columns=["url", "lang"]).to_pandas()
    assert sorted(got["url"]) == sorted(want["url"])
    assert len(got) == len(want) > 0


def test_fsspec_scheme_fallback_directory_expansion(ray_session, fixture_pages):
    from textextract_ray.sources import read_pages

    root = os.path.dirname(fixture_pages[0])
    got = read_pages([f"local://{root}"], columns=["url"]).to_pandas()
    want = read_pages(list(fixture_pages), columns=["url"]).to_pandas()
    assert sorted(got["url"]) == sorted(want["url"])


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
