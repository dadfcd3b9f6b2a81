"""Benchmark: batched fitness engine vs. the reference inner loop.

Runs one seeded :class:`GeneticSearch` twice on the same dataset — once
with ``evaluator=evaluate_spec`` (the reference per-application oracle)
and once on the default batched :class:`FitnessEngine` path — and writes
generation wall-time, fits/sec, column-store and memoization hit rates,
and the speedup to ``BENCH_genetic.json`` at the repository root.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_genetic.py -q

``REPRO_BENCH_SMOKE=1`` shrinks the search so CI can exercise the path in
seconds and skips the speedup floor; the committed report should be
regenerated without it.

Both paths draw the same split seed (same search seed) and score on the
same fixed per-application splits, so the comparison is like-for-like;
the benchmark asserts both searches converge to the same best
specification (or the same fitness to 1e-8) before quoting a speedup.

A second search (``search_discrete``) draws the hardware columns from a
few discrete levels, as the experiment drivers' design spaces do.  Their
cubic and spline bases alias the intercept, which the engine's prune
must catch: the search asserts the same winner as the oracle and that
every fit took the Cholesky path (``lstsq_fallbacks == 0``).  Only its
``speedup`` gates; its counts are informational.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import GeneticSearch, ProfileDataset, ProfileRecord, evaluate_spec

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_genetic.json"

#: Many applications amplify the leave-one-application-out redundancy the
#: engine removes — the paper's setting has dozens of applications.
N_APPS = 4 if SMOKE else 8
N_PER_APP = 20 if SMOKE else 40
POPULATION, GENERATIONS = (8, 2) if SMOKE else (20, 4)
#: Levels of the two hardware parameters in the discrete-levels search.
HW_LEVELS = ((0.5, 1.0, 2.0, 4.0), (1.0, 2.0, 3.0))

RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """Dump whatever ran to ``BENCH_genetic.json`` after the module."""
    yield
    if not RESULTS:
        return
    payload = {
        "smoke": SMOKE,
        "n_applications": N_APPS,
        "n_records": N_APPS * N_PER_APP,
        "population_size": POPULATION,
        "generations": GENERATIONS,
        **RESULTS,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report_dir = obs.default_report_dir()
    if report_dir is not None and obs.enabled():
        obs.export_jsonl(report_dir / "metrics_genetic.jsonl", run="genetic")


def _dataset(hw_levels=None) -> ProfileDataset:
    rng = np.random.default_rng(0)
    ds = ProfileDataset(("x1", "x2", "x3"), ("y1", "y2"))
    apps = [f"app{k}" for k in range(N_APPS)]
    for k, app in enumerate(apps):
        for _ in range(N_PER_APP):
            x = rng.normal(loc=k * 0.5, scale=1.0, size=3)
            if hw_levels is None:
                y = rng.uniform(0.5, 2.0, size=2)
            else:
                y = np.array([rng.choice(levels) for levels in hw_levels])
            z = (
                2.0 + 0.5 * x[0] - 0.3 * x[1] + 0.2 * x[2] ** 2
                + 0.8 * y[0] + 0.4 * x[0] * y[0]
                + rng.normal(0, 0.01)
            )
            ds.add(ProfileRecord(app, x, y, float(np.exp(z / 4.0))))
    return ds


def _timed_search(dataset, evaluator):
    search = GeneticSearch(
        population_size=POPULATION, seed=0, n_workers=1, evaluator=evaluator
    )
    start = time.perf_counter()
    result = search.run(dataset, generations=GENERATIONS)
    return result, time.perf_counter() - start, search.last_eval_stats


class TestEngineSpeedup:
    def test_engine_vs_reference(self):
        """The ISSUE acceptance case: >=5x on a seeded search, same winner."""
        ds = _dataset()
        reference, ref_seconds, _ = _timed_search(ds, evaluate_spec)
        engine, eng_seconds, stats = _timed_search(ds, None)

        # Equivalence gate before any speedup is quoted: both paths score
        # on the same fixed splits; the batched path's only deviations are
        # the documented shared-transform/shared-prune approximations.
        assert (
            engine.best_chromosome == reference.best_chromosome
            or engine.best_fitness.fitness
            == pytest.approx(reference.best_fitness.fitness, abs=1e-8)
        ), "engine and reference searches diverged"

        n_scored = stats["candidates_scored"]
        n_fits = stats["gram_fits"] + stats["lstsq_fallbacks"]
        speedup = ref_seconds / eng_seconds
        RESULTS["search"] = {
            "reference_seconds": round(ref_seconds, 4),
            "engine_seconds": round(eng_seconds, 4),
            "speedup": round(speedup, 2),
            "generation_seconds_reference": round(ref_seconds / GENERATIONS, 4),
            "generation_seconds_engine": round(eng_seconds / GENERATIONS, 4),
            "candidates_scored": int(n_scored),
            "engine_evaluations": int(stats["engine_evaluations"]),
            "fits_per_sec": round(n_fits / eng_seconds, 1),
            "gram_fits": int(stats["gram_fits"]),
            "lstsq_fallbacks": int(stats["lstsq_fallbacks"]),
            "memo_hit_rate": round(stats["memo_hit_rate"], 4),
            "column_hit_rate": round(stats["column_hit_rate"], 4),
            "best_fitness_reference": reference.best_fitness.fitness,
            "best_fitness_engine": engine.best_fitness.fitness,
            "same_best_chromosome": bool(
                engine.best_chromosome == reference.best_chromosome
            ),
        }
        if not SMOKE:
            assert speedup >= 5.0, f"expected >=5x, measured {speedup:.2f}x"

    def test_discrete_hardware_levels(self):
        """Hardware columns on a few levels, like the drivers' datasets:
        the same winner as the oracle, and no fit leaves the Cholesky path."""
        ds = _dataset(HW_LEVELS)
        reference, ref_seconds, _ = _timed_search(ds, evaluate_spec)
        engine, eng_seconds, stats = _timed_search(ds, None)
        assert engine.best_chromosome == reference.best_chromosome
        assert stats["lstsq_fallbacks"] == 0
        assert stats["failed_fits"] == 0
        RESULTS["search_discrete"] = {
            "speedup": round(ref_seconds / eng_seconds, 2),
            "hw_levels": [len(levels) for levels in HW_LEVELS],
            "candidates_scored": int(stats["candidates_scored"]),
            "engine_evaluations": int(stats["engine_evaluations"]),
            "gram_fits": int(stats["gram_fits"]),
            "lstsq_fallbacks": int(stats["lstsq_fallbacks"]),
            "best_fitness_reference": reference.best_fitness.fitness,
            "best_fitness_engine": engine.best_fitness.fitness,
        }


class TestObservabilityOverhead:
    def test_obs_overhead_within_two_percent(self):
        """The ISSUE acceptance case: the instrumented search (REPRO_OBS=1,
        the default) stays within 2% of the uninstrumented runtime.

        Instrumentation is per-generation spans plus a handful of counter
        increments per spec evaluation, so the overhead should be noise;
        best-of-3 timings keep scheduler jitter out of the ratio.  The
        floor is asserted on non-smoke runs only (smoke searches finish in
        milliseconds, where timer noise alone exceeds 2%).
        """
        ds = _dataset()
        _timed_search(ds, None)  # warm transforms/caches out of the timings

        def best_of(enabled: bool, reps: int = 3) -> float:
            obs.configure(enabled=enabled)
            try:
                return min(_timed_search(ds, None)[1] for _ in range(reps))
            finally:
                obs.configure(enabled=True)

        instrumented = best_of(True)
        uninstrumented = best_of(False)
        overhead = instrumented / uninstrumented - 1.0
        RESULTS["obs_overhead"] = {
            "instrumented_seconds": round(instrumented, 4),
            "uninstrumented_seconds": round(uninstrumented, 4),
            "overhead_fraction": round(overhead, 4),
        }
        if not SMOKE:
            assert overhead <= 0.02, (
                f"observability overhead {overhead:.1%} exceeds the 2% budget"
            )
