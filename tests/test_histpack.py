"""Sequence packing's bucket count: the caller's ``num_buckets`` is a
floor, and the packed output does not depend on the bucket count."""


def test_packer_bucket_count_autoscales(ray_session, monkeypatch):
    """VERDICT r4 item 4: the effective bucket count grows with input
    size (caller's num_buckets is a floor, not a cap) so one map_groups
    task never holds corpus/64 rows — and the packed output is
    invariant to the bucket count."""
    import ray.data as rd

    from textextract_ray.pipelines import textops

    ds = rd.from_items([{"doc_id": i, "text": "a b c"} for i in range(5000)])
    _, nb_default = textops._bucketed_token_counts(ds, 64)
    assert nb_default == 64  # small corpus: floor wins

    monkeypatch.setattr(textops, "PACK_ROWS_PER_BUCKET", 50)
    _, nb_scaled = textops._bucketed_token_counts(ds, 64)
    assert nb_scaled == 100  # ceil(5000 / 50): grows with the corpus

    # output invariant to the bucket count
    a = (
        textops.pack_sequences_ds(ds, capacity=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.undo()
    b = (
        textops.pack_sequences_ds(ds, capacity=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)
