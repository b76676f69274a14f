"""Robots-meta noindex compliance filter (``filter_noindex_ds``)."""

from __future__ import annotations


def test_filter_noindex(ray_session):
    """Robots-meta opt-out: both attribute orders, any case, bounded
    head scan; audit mode counts without filtering."""
    import pyarrow as pa
    import ray.data as rd

    from textextract_ray.pipelines.textops import filter_noindex_ds

    pages = pa.table(
        {
            "url": [f"https://x.com/{i}" for i in range(5)],
            "html": pa.array(
                [
                    b'<html><head><META NAME="ROBOTS" CONTENT="NOINDEX, NOFOLLOW"></head>ok',
                    b'<meta content="noindex" name="googlebot">body',
                    b'<meta name="description" content="noindex talk">keep',
                    b"plain page keeps",
                    b'<meta name="robots" content="index, follow">keep too',
                ],
                pa.binary(),
            ),
        }
    )
    ds = rd.from_arrow(pages)
    kept = filter_noindex_ds(ds).to_pandas()
    assert sorted(kept["url"]) == [f"https://x.com/{i}" for i in (2, 3, 4)]
    audit = filter_noindex_ds(ds, audit=True).to_pandas()
    assert len(audit) == 5 and audit["noindex"].sum() == 2
