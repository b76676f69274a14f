"""Transient-vs-poison failure classification (SURVEY §4.2).

Transient I/O-shaped exceptions (OSError & co.) are retried in place by
the Ray task layer — the batch re-runs on the same warm actor (the
reference's retry ladders, src/ocr.py:207-259). Poison documents never
raise: the extractor converts them to status rows, so they can't burn
retries. Non-transient exceptions are NOT retried (fail fast).

The flaky/poisoned stage classes are defined INSIDE the tests on
purpose: cloudpickle then ships them by value, so the actor worker
doesn't need to import this test module (a module-level class here
would crash actor construction and max_restarts=-1 would spin).
"""

from __future__ import annotations

import pyarrow as pa
import pytest

import ray

from textextract_ray.stages.extract import (
    ExtractBatch,
    apply_transient_retry_policy,
)
from textextract_ray.datagen import make_page, page_url


def _pages_ds(n=32):
    return ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array([page_url(i) for i in range(n)]),
                "html": pa.array([make_page(i) for i in range(n)], pa.large_binary()),
            }
        )
    )


def test_transient_oserror_is_retried_in_place(ray_session):
    apply_transient_retry_policy()

    class FlakyExtract(ExtractBatch):
        """Raises a transient OSError on the first batch this actor
        sees — the shape of a dropped connection mid-shard."""

        def __init__(self, **kw):
            super().__init__(**kw)
            self._failed_once = False

        def __call__(self, batch):
            if not self._failed_once:
                self._failed_once = True
                raise OSError("simulated transient I/O failure")
            return super().__call__(batch)

    out = (
        _pages_ds()
        .map_batches(
            FlakyExtract, batch_format="pyarrow", batch_size=16, concurrency=1
        )
        .to_pandas()
    )
    # every row survived the injected failure: the retry re-ran the
    # batch on the same actor, whose state says "already failed once";
    # output matches a run with no fault at all
    clean = (
        _pages_ds()
        .map_batches(ExtractBatch, batch_format="pyarrow", batch_size=16, concurrency=1)
        .to_pandas()
    )
    assert len(out) == 32
    assert sorted(out["url"]) == sorted(clean["url"])
    assert out.sort_values("url")["status"].tolist() == clean.sort_values("url")["status"].tolist()


def test_non_transient_error_fails_fast(ray_session):
    apply_transient_retry_policy()

    class PoisonedPoolExtract(ExtractBatch):
        """Raises a NON-transient error — must fail fast, not retry."""

        def __call__(self, batch):
            raise ValueError("logic bug: must not be retried")

    ds = _pages_ds().map_batches(
        PoisonedPoolExtract, batch_format="pyarrow", batch_size=16, concurrency=1
    )
    with pytest.raises(Exception) as ei:
        ds.to_pandas()
    assert "must not be retried" in str(ei.value)


def test_poison_document_is_a_status_row_not_a_retry(ray_session):
    # a malformed doc goes through the normal pool and comes out as a
    # status row — no exception reaches the retry machinery
    apply_transient_retry_policy()
    tbl = pa.table(
        {
            "url": pa.array(["https://h.example/poison"]),
            "html": pa.array([None], pa.large_binary()),
        }
    )
    out = (
        ray.data.from_arrow(tbl)
        .map_batches(ExtractBatch, batch_format="pyarrow", concurrency=1)
        .to_pandas()
    )
    assert len(out) == 1
    assert out["status"].iloc[0] != "ok"


def test_task_mode_transient_retry(ray_session, tmp_path, monkeypatch):
    """The extract task stage (extract_dataset) must retry transient
    OSErrors too: plain tasks don't consume actor_task_retry_on_errors
    (Ray 2.49 reads it only in the actor-pool operator), so the stage
    passes retry_exceptions in its remote args. Flakiness keyed on a
    marker FILE because a retried task re-deserializes its callable —
    instance state does not survive the attempt boundary."""
    import os

    from textextract_ray.pipelines.extract_pipeline import extract_dataset
    from textextract_ray.stages import extract as ex

    marker = str(tmp_path / "failed_once")

    class FlakyTaskExtract(ex.ExtractBatch):
        def __call__(self, batch):
            if not os.path.exists(marker):
                with open(marker, "w") as f:
                    f.write("x")
                raise OSError("simulated transient I/O failure")
            return super().__call__(batch)

    # full PAGES_SCHEMA rows: the task stage validates every block
    from textextract_ray.datagen import EPOCH_US
    from textextract_ray.schemas import PAGES_SCHEMA

    rows = [
        {"url": page_url(i), "warc_ts": EPOCH_US, "html": make_page(i),
         "text": "", "lang": "en"}
        for i in range(32)
    ]
    pages = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA))
    monkeypatch.setattr(ex, "ExtractBatch", FlakyTaskExtract)
    out = extract_dataset(pages, batch_size=16).to_pandas()
    assert len(out) == 32
    assert os.path.exists(marker)  # the injected failure actually fired


def test_permanently_dead_shard_fails_bounded(ray_session):
    """A permanently-failing shard (missing object-store key — the
    OSError class the transient policy retries) must surface to the
    driver after TRANSIENT_MAX_RETRIES task retries, NOT respawn its
    task forever. Round-5 regression: extract_files grew URI support
    (the old local-only ValueError is gone), and with Ray Data's
    default task max_retries=-1 the retry_exceptions contract turned a
    dead localhost mirror into a 401-attempt infinite loop that wedged
    the suite until a SIGINT."""
    import pytest as _pytest

    from textextract_ray.pipelines.extract_pipeline import extract_files

    with _pytest.raises(Exception, match="nonexistent-bucket|No such file|not found"):
        # dedup's key scan materializes, so the bounded failure surfaces
        # right here — no separate consume step needed
        extract_files(["local:///nonexistent-bucket/shard-0.parquet"]).count()
