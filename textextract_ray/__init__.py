"""textextract_ray — a Ray-Data-native main-content extraction engine.

A brand-new engine (NOT a port) with the query/data-processing
capabilities of the reference desktop-OCR SaaS (Zidny000/TextExtract,
read-only at /root/reference): the reference's one core computation —
``extract(document) -> exact text, nothing added, nothing reformatted``
(contract spelled out at reference backend/routes/api_routes.py:78) —
rebuilt as a streaming ``ray.data.Dataset`` pipeline over Parquet tables
of Common-Crawl-style web pages, plus the relational operators the
reference builds around it (usage metering, quota predicates, windowed
aggregation, versioned top-1 selection, dedup, retries/provenance), each
re-expressed as idiomatic Ray Data stages.

Layout:
  schemas        pinned pyarrow schemas (pages / extracted / counters)
  datagen        deterministic fixture-page generator (FIXTURES.md classes F0–F11)
  oracle         pure-Python single-doc extractor (the byte-identity reference)
  warc, pdf      stdlib WARC reader/writer and PDF text extraction
  png, mp4, imagemeta, imageops
                 stdlib media codecs and pixel ops for the multimodal stages
  stages/        map_batches stages: validate, extract, dedup, similarity,
                 metrics, multimodal
  sources/       pruned parquet readers for the test tables + pages shards
  functions/     vectorized scalar kernels (text stats, hashing, versions, windows)
  pipelines/     end-to-end pipelines, the relational and text query
                 libraries, the versioned table log and the resumable job
                 that commits into it (run_job_versioned)
"""

__version__ = "0.1.0"

EXTRACTOR_VERSION = "1.0.0"
