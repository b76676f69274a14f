"""The engine hash ``hash_utf8`` on binary input, as the content key
of crawl snapshots: the binary fast path must agree with the string
path and must accept bytes that are not valid utf-8."""

from __future__ import annotations

import pyarrow as pa


def test_hash_utf8_binary_matches_string():
    """The binary fast path of the engine hash must agree byte-for-byte
    with the string path (same buffers, no utf8-validating cast)."""
    import numpy as np

    from textextract_ray.functions.scalar import hash_utf8

    s = ["", "a", "hello world", "x" * 100]
    hs = hash_utf8(pa.array(s, pa.string()), seed=7)
    hb = hash_utf8(pa.array([x.encode() for x in s], pa.binary()), seed=7)
    assert np.array_equal(hs, hb)
    # non-utf8 bytes hash fine (would crash a utf8-validating cast)
    raw = [b"\xff\xfe\x00\x80", b"\x00", bytes(range(256))]
    h = hash_utf8(pa.array(raw, pa.binary()), seed=7)
    assert len(set(h.tolist())) == 3
