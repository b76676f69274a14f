"""End-to-end web-corpus RELEASE recipe: pages -> extraction (actor
pool, url dedup) -> attribute tagging -> quality mix -> JSONL release
shards -> read-back. Every stage is the library's own public surface;
the test pins the COMPOSITION (columns thread through, counts only
shrink, release round-trips), not any one kernel — each has its own
suite."""

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
    from textextract_ray.sources import read_jsonl, write_jsonl

    pages = rd.read_parquet(list(fixture_pages))
    n_pages = pages.count()

    extracted = dedup_by_url(extract_dataset(pages)).materialize()
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

    docs = ok.map_batches(to_docs, batch_format="pyarrow").materialize()
    n_docs = docs.count()
    assert 0 < n_docs <= n_pages

    attrs = tag_attributes_ds(docs, standard_taggers())
    kept = filter_by_attributes_ds(
        docs, attrs, lambda b: pc.greater(b["n_tokens"], 3)
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
