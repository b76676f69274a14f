"""WARC source (Common Crawl native format): framing round-trip, the
distributed reader vs the parquet read path (same corpus byte-for-byte),
and read(warc) -> extract e2e.
"""

from __future__ import annotations

import pytest


def test_warc_framing_round_trip(tmp_path):
    """Writer -> reader round-trip: headers and payloads byte-exact,
    multi-member gzip handled, non-response records skipped by the
    consumer, malformed streams raise."""
    from textextract_ray.warc import (
        http_response_payload,
        iter_warc_gz,
        parse_http_response,
        write_warc_gz,
    )

    body0 = b"<html><p>hello</p></html>"
    recs = [
        (
            {
                "WARC-Type": "warcinfo",
                "WARC-Record-ID": "<urn:uuid:info>",
            },
            b"software: test\r\n",
        ),
        (
            {
                "WARC-Type": "response",
                "WARC-Target-URI": "https://a.example/x",
                "WARC-Date": "2017-07-14T02:40:00Z",
            },
            http_response_payload(body0),
        ),
    ]
    path = str(tmp_path / "t.warc.gz")
    write_warc_gz(path, recs)

    got = list(iter_warc_gz(path))
    assert len(got) == 2
    assert got[0][0]["WARC-Type"] == "warcinfo"
    h, payload = got[1]
    assert h["WARC-Target-URI"] == "https://a.example/x"
    code, http_h, body = parse_http_response(payload)
    assert code == 200
    assert http_h["content-type"] == "text/html"
    assert body == body0

    with pytest.raises(ValueError, match="WARC version"):
        list(iter_warc_gz(__import__("gzip").compress(b"JUNK\r\n\r\n")))
    with pytest.raises(ValueError, match="truncated"):
        import gzip as _gz

        list(
            iter_warc_gz(
                _gz.compress(
                    b"WARC/1.0\r\nWARC-Type: response\r\nContent-Length: 99\r\n\r\nshort"
                )
            )
        )


def test_read_warc_matches_parquet(tmp_path):
    """The WARC decoder yields the SAME pages as the parquet shards of
    the same corpus (html byte-identical, url/ts/lang equal)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from textextract_ray.datagen import generate_pages, generate_warc
    from textextract_ray.sources import warc_pages_chunks

    pq_files = generate_pages(str(tmp_path / "pq"), 120, 3, giant_bytes=1 << 16)
    warc_files = generate_warc(str(tmp_path / "warc"), 120, 3, giant_bytes=1 << 16)
    assert len(warc_files) == 3

    a = pa.concat_tables([pq.read_table(p) for p in pq_files]).to_pandas()
    b = pa.concat_tables(
        [t for p in warc_files for t in warc_pages_chunks(p, rows_per_chunk=16)]
    ).to_pandas()
    a = a.sort_values("url").reset_index(drop=True)
    b = b.sort_values("url").reset_index(drop=True)
    assert len(a) == len(b) == 120
    assert a["url"].tolist() == b["url"].tolist()
    assert a["lang"].tolist() == b["lang"].tolist()
    assert [bytes(x) for x in a["html"]] == [bytes(x) for x in b["html"]]
    # WARC-Date carries second resolution; the synthetic corpus uses
    # whole-second steps so timestamps match exactly
    assert a["warc_ts"].tolist() == b["warc_ts"].tolist()


def test_extract_files_fused_warc(ray_session, tmp_path):
    """extract_files accepts .warc.gz shards (archive streamed inside
    the extract task — same zero-plasma motion as parquet) and yields
    extracted rows identical to the parquet fused path; formats mix in
    one shard list."""
    from textextract_ray.datagen import generate_pages, generate_warc
    from textextract_ray.pipelines.extract_pipeline import extract_files

    cols = ["url", "extracted_text", "status", "spans"]

    def norm(ds):
        df = ds.to_pandas()[cols].sort_values("url").reset_index(drop=True)
        df["spans"] = df["spans"].map(
            lambda s: tuple(tuple(sorted(d.items())) for d in s)
        )
        return df

    pq_files = generate_pages(str(tmp_path / "pq"), 120, 3, giant_bytes=1 << 16)
    warc_files = generate_warc(str(tmp_path / "warc"), 120, 3, giant_bytes=1 << 16)

    a = norm(extract_files(pq_files, dedup=False))
    b = norm(extract_files(warc_files, dedup=False))
    assert a.equals(b)

    mixed = norm(extract_files([pq_files[0], *warc_files[1:]], dedup=False))
    assert len(mixed) == 120
    assert mixed.equals(a)
