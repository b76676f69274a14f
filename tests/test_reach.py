"""Reach ratchet: the package's unreached surface is exactly the keep list.

``tools/reach.py`` lists every top-level package definition that no
entry point (CLI, driver gate, bench, perfbench, tools) reaches. A
``@register`` stage factory counts as reached only when
``build_pipeline`` is reached and a reached scope names its registry
key, so registering a stage does not hide it. Each name in KEEP stays
on purpose; UNDECIDED holds
the test-only families still to decide. An operator that only tests
call cannot come back without an edit here. Lower the bounds when a
change deletes more."""

from tools import reach

MAX_UNREACHED_DEFS = 157
MAX_UNREACHED_LINES = 4887

KEEP = {
    # the reference's scalar-function surface (SURVEY.md §2.8), pinned
    # by tests/test_functions.py as the port's record of those helpers
    "latest_stable", "pick_asset", "version_gt", "parse_version",
    "price_tier", "bytes_to_mb", "epoch_to_ts", "iso_parse",
    "is_valid_email", "password_strength_flags", "percent",
    "anchored_period",
    # the url-hash input layout: the 100-TB answer to cross-partition
    # dedup, documented in SCALE.md
    "partition_pages_by_url",
    # the table-log API beyond what the job uses: change feeds, key
    # lookups, schema evolution, deletes and overwrites
    "table_changes", "read_table_keys", "table_overwrite",
    "table_add_column", "table_delete_keys",
    # fixture writers the tests build their corpora with
    "synthesize_mp4", "generate_warc", "write_warc_gz",
    "http_response_payload",
    # reference surfaces from VERDICT.md's operator table: stage
    # assembly and error capture (S4/§2.10), the denylist (A4), JSONL
    # release shards (S1)
    "build_pipeline", "with_error_capture", "denylist_filter",
    "read_jsonl", "write_jsonl",
    # ORs same-shaped Bloom filters: the table-wide key filter that
    # ROADMAP direction 3 plans to build
    "bloom_merge",
    # the stage-registry surface (S4/§2.10) that build_pipeline serves:
    # the factories of the registered stages, reached through a job spec
    "_annotate_factory", "_extract_factory", "_content_hash_factory",
    "_quality_factory", "_langid_factory", "_pii_scrub_factory",
    "_decode_image_factory", "_preprocess_image_factory",
    "_resize_image_factory", "_frame_sample_factory",
    "_sentence_chunks_factory", "_image_dhash_factory",
    "_embed_text_factory",
    # the desktop client's capture preprocessing (reference
    # src/ocr.py:43-60, SURVEY.md §1.1): enhance, resize and re-encode
    "PreprocessImage", "ResizeImage", "_blend", "enhance_contrast",
    "_smooth", "enhance_sharpness", "enhance_brightness",
    "preprocess_pixels", "resize_bilinear", "center_crop",
    "normalize_chw", "_chunk", "png_encode",
}

# Test-only families not yet decided (ROADMAP direction 9). Each still
# carries its own suite; the next cut deletes a family together with
# its tests.
UNDECIDED = {
    # BPE and unigram tokenizers and their corpus-level drivers
    "train_bpe", "merge_ranks", "bpe_encode_word", "bpe_vocab",
    "bpe_encode_ids", "bpe_encode_counts", "bpe_token_stats",
    "_assemble_token_ids", "bpe_encode_corpus_ds", "bpe_encode_corpus",
    "_logsumexp2", "seed_unigram_vocab", "_forward",
    "expected_piece_counts", "corpus_loglik", "train_unigram",
    "_logsumexp_all", "viterbi_encode_word", "unigram_vocab",
    "train_unigram_lm", "unigram_encode_corpus_ds",
    # arrow, token-bin and tar shard formats
    "write_arrow_shards", "read_arrow_shards",
    "_idx_bytes", "_parse_idx", "_convert_shard", "write_token_shards",
    "load_shard", "read_token_shards",
    "_key_strings", "_member_bytes", "_convert_tar", "write_tar_shards",
    "read_tar_shards",
    # the attribute sidecar store and the per-string text kernels
    "tag_attributes_ds", "filter_by_attributes_ds", "standard_taggers",
    "code_taggers", "compression_ratio", "shingle_hashes", "simhash64",
    "hamming64", "surt_host_key",
    # retrieval: BM25, the disk vector index, topic labels, semantic
    # decontamination, k-means, PCA and int8/PQ quantized search
    "_analyze_batch", "analyze_query", "build_text_index", "bm25_search",
    "build_vector_index", "_load_meta", "vector_search", "hybrid_search",
    "embed_query", "semantic_decontaminate_against", "cluster_topics",
    "kmeans_fit", "kmeans_assign", "cluster_sizes",
    "embedding_pca", "train_quantizer", "quantize_embeddings",
    "QuantizedTopK", "quantized_topk", "_exact_rerank", "train_pq",
    "pq_encode", "PQTopK", "pq_topk",
    # clustered and z-ordered layouts, shard assignment, skew salting,
    # bin packing
    "_boundary_sample", "write_clustered", "_json_key", "read_clustered",
    "cluster_boundaries", "_range_files", "clustered_join",
    "_col_buckets", "write_clustered_multi", "read_clustered_multi",
    "read_clustered_keys",
    "_range_bucket_bounds", "dense_rank_ds", "assign_shards_ds",
    "_key_counts_ds", "key_skew_report", "salt_hot_keys",
    "grouped_sum_salted", "pack_bins", "pack_bins_ds",
    # audio decode/features and HTML table extraction
    "DecodeAudio", "decode_audio", "AudioFeatures", "audio_features",
    "_Table", "extract_tables", "extract_tables_ds",
    # retrieval and media stages behind the registry: image dHash,
    # sentence chunking, hashed-feature text embeddings
    "ImageDHash", "dhash64", "sentence_chunks_ds", "split_sentences",
    "embed_text_ds", "embed_batch", "_occurrence_hashes", "_sign_matrix",
}


def test_unreached_surface_does_not_grow():
    dead, total = reach.scan()
    lines = sum(d[3] for d in dead)
    assert total > 0
    assert {d[2] for d in dead} == KEEP | UNDECIDED
    assert len(dead) <= MAX_UNREACHED_DEFS, [d[2] for d in dead]
    assert lines <= MAX_UNREACHED_LINES, (lines, MAX_UNREACHED_LINES)
