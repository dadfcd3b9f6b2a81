"""Unit tests for the genetic search, fitness loop and baselines."""

import numpy as np
import pytest

from repro.core import (
    Chromosome,
    GeneticSearch,
    InferredModel,
    ModelSpec,
    ProfileDataset,
    TransformKind,
    evaluate_spec,
    manual_general_spec,
    stepwise_search,
)
from repro.core.fitness import FAILED_FITNESS
from tests.conftest import make_synthetic_dataset


def tiny_search(**kwargs):
    params = dict(population_size=8, seed=0)
    params.update(kwargs)
    return GeneticSearch(**params)


class TestFitness:
    def test_evaluates_per_application(self, synthetic_dataset):
        spec = ModelSpec(
            transforms={
                name: TransformKind.LINEAR
                for name in synthetic_dataset.variable_names
            }
        )
        result = evaluate_spec(spec, synthetic_dataset, np.random.default_rng(0))
        assert set(result.per_application) == set(synthetic_dataset.applications)
        assert result.mean_error == pytest.approx(
            np.mean(list(result.per_application.values()))
        )
        assert result.sum_error == pytest.approx(
            np.sum(list(result.per_application.values()))
        )

    def test_good_spec_scores_well(self, synthetic_dataset):
        spec = ModelSpec(
            transforms={
                name: TransformKind.LINEAR
                for name in synthetic_dataset.variable_names
            },
            interactions=frozenset({("x1", "y1")}),
        )
        result = evaluate_spec(spec, synthetic_dataset, np.random.default_rng(0))
        assert result.mean_error < 0.05

    def test_degenerate_spec_fails_gracefully(self):
        ds = make_synthetic_dataset(n_per_app=2)
        spec = ModelSpec(
            transforms={name: TransformKind.SPLINE for name in ds.variable_names}
        )
        result = evaluate_spec(spec, ds, np.random.default_rng(0))
        assert result.mean_error <= FAILED_FITNESS

    def test_empty_dataset_rejected(self):
        ds = ProfileDataset(("x1",), ("y1",))
        spec = ModelSpec(transforms={"x1": TransformKind.LINEAR,
                                     "y1": TransformKind.LINEAR})
        with pytest.raises(ValueError):
            evaluate_spec(spec, ds, np.random.default_rng(0))


class TestGeneticSearch:
    def test_population_size_maintained(self, synthetic_dataset):
        search = tiny_search()
        result = search.run(synthetic_dataset, generations=3)
        assert len(result.population) == 8
        assert len(result.fitnesses) == 8

    def test_population_sorted_best_first(self, synthetic_dataset):
        result = tiny_search().run(synthetic_dataset, generations=3)
        fitness_values = [f.fitness for f in result.fitnesses]
        assert fitness_values == sorted(fitness_values)
        assert result.best_fitness.fitness == fitness_values[0]

    def test_history_one_record_per_generation(self, synthetic_dataset):
        result = tiny_search().run(synthetic_dataset, generations=4)
        assert [r.generation for r in result.history] == [1, 2, 3, 4]

    def test_elitism_never_regresses(self, synthetic_dataset):
        """With elites surviving unchanged, the best fitness is monotone
        non-increasing across generations (up to split-noise, which we
        eliminate by reusing the evaluator's rng seed stream)."""
        result = tiny_search(seed=3).run(synthetic_dataset, generations=5)
        best = [r.best_fitness for r in result.history]
        # Allow small noise from re-splits but no catastrophic regression.
        assert best[-1] <= best[0] + 0.02

    def test_reproducible(self, synthetic_dataset):
        a = tiny_search(seed=11).run(synthetic_dataset, generations=3)
        b = tiny_search(seed=11).run(synthetic_dataset, generations=3)
        assert a.best_chromosome == b.best_chromosome

    def test_seed_changes_search(self, synthetic_dataset):
        a = tiny_search(seed=11).run(synthetic_dataset, generations=3)
        b = tiny_search(seed=12).run(synthetic_dataset, generations=3)
        assert (
            a.best_chromosome != b.best_chromosome
            or a.best_fitness.fitness != b.best_fitness.fitness
        )

    def test_warm_start_update(self, synthetic_dataset):
        search = tiny_search()
        search.run(synthetic_dataset, generations=2)
        grown = make_synthetic_dataset(apps=("alpha", "beta", "gamma", "delta"))
        second = search.update(grown, generations=2)
        assert len(second.population) == 8

    def test_update_without_run_falls_back(self, synthetic_dataset):
        search = tiny_search()
        result = search.update(synthetic_dataset, generations=2)
        assert result.best_chromosome is not None

    def test_initial_population_seeding(self, synthetic_dataset):
        n_vars = len(synthetic_dataset.variable_names)
        seeded = Chromosome((1,) * n_vars, frozenset())
        result = tiny_search().run(
            synthetic_dataset, generations=1, initial_population=[seeded]
        )
        assert len(result.population) == 8

    def test_best_model_fits_full_dataset(self, synthetic_dataset):
        result = tiny_search().run(synthetic_dataset, generations=2)
        model = result.best_model(synthetic_dataset)
        assert isinstance(model, InferredModel)
        assert np.isfinite(model.predict(synthetic_dataset)).all()

    def test_ranked_ordering(self, synthetic_dataset):
        result = tiny_search().run(synthetic_dataset, generations=2)
        ranked = result.ranked()
        values = [f.fitness for _, f in ranked]
        assert values == sorted(values)

    def test_progress_callback(self, synthetic_dataset):
        seen = []
        tiny_search().run(
            synthetic_dataset, generations=3, progress=seen.append
        )
        assert len(seen) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneticSearch(population_size=2)
        with pytest.raises(ValueError):
            GeneticSearch(elite_fraction=1.5)


class TestStepwise:
    def test_improves_over_intercept(self, synthetic_dataset):
        spec, error = stepwise_search(
            synthetic_dataset, np.random.default_rng(0), max_terms=6
        )
        assert error < 0.5
        assert spec.included_variables or spec.interactions

    def test_finds_main_effects(self):
        ds = make_synthetic_dataset(noise=0.001, n_per_app=60)
        spec, error = stepwise_search(ds, np.random.default_rng(0), max_terms=8)
        assert error < 0.05


class TestManualSpec:
    def test_covers_table_1_and_2_variables(self):
        spec = manual_general_spec()
        names = set(spec.transforms)
        assert {f"x{i}" for i in range(1, 14)} <= names
        assert {f"y{i}" for i in range(1, 14)} <= names

    def test_drops_rare_events(self):
        spec = manual_general_spec()
        assert spec.transforms["x4"] == TransformKind.EXCLUDED
        assert spec.transforms["y12"] == TransformKind.EXCLUDED

    def test_window_splined(self):
        assert manual_general_spec().transforms["y2"] == TransformKind.SPLINE


class TestParallelEvaluation:
    def test_n_workers_path_matches_serial(self, synthetic_dataset):
        """The multiprocessing inner loop returns the same fitness values
        as the serial path (the paper's embarrassingly parallel claim)."""
        serial = GeneticSearch(population_size=6, seed=4, n_workers=1).run(
            synthetic_dataset, generations=1
        )
        parallel = GeneticSearch(population_size=6, seed=4, n_workers=2).run(
            synthetic_dataset, generations=1
        )
        assert [f.fitness for f in serial.fitnesses] == pytest.approx(
            [f.fitness for f in parallel.fitnesses]
        )
