"""End-to-end web-corpus RELEASE recipe over the round-4 operator set:
pages -> robots-noindex compliance -> extraction (actor pool, url
dedup) -> unicode normalize (registry stage) -> frequent-line scrub
-> attribute tagging -> quality mix -> JSONL release shards ->
read-back. Every
stage is the library's own public surface; the test pins the
COMPOSITION (columns thread through, counts only shrink, release
round-trips), not any one kernel — each has its own suite."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def test_release_recipe_end_to_end(ray_session, fixture_pages, tmp_path):
    import ray.data as rd

    from textextract_ray.functions.scalar import stable_hash64
    from textextract_ray.pipelines.attributes import (
        filter_by_attributes_ds,
        standard_taggers,
        tag_attributes_ds,
    )
    from textextract_ray.pipelines.extract_pipeline import (
        dedup_by_url,
        extract_dataset,
    )
    from textextract_ray.pipelines.registry import build_pipeline
    from textextract_ray.pipelines.textops import (
        filter_noindex_ds,
        line_frequency_filter_ds,
    )
    from textextract_ray.sources import read_jsonl, write_jsonl

    pages = rd.read_parquet(list(fixture_pages))
    n_pages = pages.count()

    compliant = filter_noindex_ds(pages)
    extracted = dedup_by_url(extract_dataset(compliant)).materialize()
    ok = extracted.filter(expr="status == 'ok'")

    def to_docs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(
                    stable_hash64(batch["url"]).astype("int64"), pa.int64()
                ),
                "url": batch["url"],
                "text": batch["extracted_text"],
            }
        )

    docs = ok.map_batches(to_docs, batch_format="pyarrow")
    normalized = build_pipeline(docs, [{"stage": "normalize_text"}])
    scrubbed = line_frequency_filter_ds(normalized, min_count=5).materialize()
    n_docs = scrubbed.count()
    assert 0 < n_docs <= n_pages
    # pass-through columns survived both text stages
    assert {"doc_id", "url", "text", "mojibake_fixed", "n_dropped"} <= set(
        scrubbed.schema().names
    )

    attrs = tag_attributes_ds(scrubbed, standard_taggers())
    kept = filter_by_attributes_ds(
        scrubbed, attrs, lambda b: pc.greater(b["n_tokens"], 3)
    ).materialize()
    n_kept = kept.count()
    assert 0 < n_kept <= n_docs

    out = str(tmp_path / "release")
    manifest = write_jsonl(kept, out).to_pandas()
    assert manifest["rows"].sum() == n_kept
    shards = glob.glob(os.path.join(out, "part-*.jsonl.gz"))
    assert len(shards) == len(manifest)

    back = read_jsonl(out)
    assert back.count() == n_kept
    # release is loss-free for the surviving docs: url->text round-trips
    a = kept.to_pandas().sort_values("url").reset_index(drop=True)
    b = back.to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_series_equal(a["text"], b["text"])
    assert (a["url"] == b["url"]).all()
