"""map_batches stages: validate, extract, dedup, similarity (ANN top-k,
quantized search, k-means), metrics and its budgeted fold,
image/audio/video multimodal plumbing."""
