"""Benchmark: the streaming re-specification subsystem.

Measures the two numbers the refresh/respec split lives on:

1. **Ingest throughput** — observations folded per second through the
   full ingest path (prequential scoring, Gram rank-k update, per-batch
   coefficient refresh).
2. **Refresh vs re-spec cost** — a coefficient refresh is a p×p solve
   over the accumulated blocks; a re-specification is a warm-started GA
   pass plus a full state rebuild.  The acceptance criterion is a >= 10x
   gap (in practice it is orders of magnitude), which is what makes
   refresh-on-every-batch a sane default.

Writes ``BENCH_stream.json`` at the repository root (gated against the
committed baseline by ``scripts/check_bench.py``: ``observations_per_sec``
and ``speedup`` are floor-gated, the raw millisecond timings are
informational) and dumps the obs registry to
``reports/metrics_stream.jsonl``.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_stream.py -q

``REPRO_BENCH_SMOKE=1`` shrinks the batch count for CI.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.dataset import ProfileDataset, ProfileRecord
from repro.core.genetic import GeneticSearch
from repro.serve.bootstrap import _app_records, demo_dataset
from repro.stream import DriftConfig, StreamingRespecifier

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_stream.json"

BATCHES = 30 if SMOKE else 200
BATCH_RECORDS = 16
REFRESH_REPS = 20 if SMOKE else 100
RESPEC_REPS = 2 if SMOKE else 5

RESULTS: dict = {}

#: A calm detector: this benchmark times the maintenance actions
#: themselves, so ingest must not veer off into re-specifications.
CALM = DriftConfig(
    window=64, min_fill=16, trip_ratio=50.0, clear_ratio=1.1, patience=3
)


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    if not RESULTS:
        return
    payload = {
        "smoke": SMOKE,
        "batches": BATCHES,
        "batch_records": BATCH_RECORDS,
        **RESULTS,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report_dir = obs.default_report_dir()
    if report_dir is not None and obs.enabled():
        obs.export_jsonl(report_dir / "metrics_stream.jsonl", run="stream")


@pytest.fixture(scope="module")
def respecifier():
    dataset = demo_dataset(n_apps=4, n_per_app=30, seed=0)
    search = GeneticSearch(population_size=8, seed=0)
    respec = StreamingRespecifier(dataset, search, CALM)
    respec.bootstrap(generations=2)
    respec.set_baseline(1.0)
    return respec


def _batches(respec, n, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        batch = ProfileDataset(respec.dataset.x_names, respec.dataset.y_names)
        for record in _app_records("app0", BATCH_RECORDS, rng, shift=0.2):
            batch.add(record)
        out.append(batch)
    return out


class TestStreamPerf:
    def test_ingest_throughput(self, respecifier):
        batches = _batches(respecifier, BATCHES)
        start = time.perf_counter()
        refreshed = 0
        for batch in batches:
            outcome = respecifier.ingest(batch, allow_respec=False)
            refreshed += outcome.refreshed
        elapsed = time.perf_counter() - start
        records = BATCHES * BATCH_RECORDS
        RESULTS["ingest"] = {
            "observations_per_sec": round(records / elapsed, 1),
            "records": records,
            "refreshes": refreshed,
            "ingest_seconds_total": round(elapsed, 4),
        }
        # The refresh path must have been live, not silently failing.
        assert refreshed == BATCHES
        if not SMOKE:
            assert records / elapsed >= 500.0

    def test_refresh_at_least_10x_cheaper_than_respec(self, respecifier):
        # Refresh: p×p solve + coefficient rebind, timed hot.
        respecifier.refresh()  # warm any lazy state
        start = time.perf_counter()
        for _ in range(REFRESH_REPS):
            assert respecifier.refresh()
        refresh_s = (time.perf_counter() - start) / REFRESH_REPS

        # Re-specification: warm-started GA + adopt (accumulator rebuild,
        # committee refit, detector reset).
        start = time.perf_counter()
        for _ in range(RESPEC_REPS):
            respecifier.respec(generations=1)
        respec_s = (time.perf_counter() - start) / RESPEC_REPS

        speedup = respec_s / refresh_s
        RESULTS["refresh_vs_respec"] = {
            "refresh_ms": round(refresh_s * 1e3, 4),
            "respec_ms": round(respec_s * 1e3, 4),
            "speedup": round(speedup, 1),
            "refresh_reps": REFRESH_REPS,
            "respec_reps": RESPEC_REPS,
        }
        assert speedup >= 10.0, (
            f"refresh must be >= 10x cheaper than re-specification, "
            f"measured {speedup:.1f}x "
            f"({refresh_s * 1e3:.3f} ms vs {respec_s * 1e3:.3f} ms)"
        )
