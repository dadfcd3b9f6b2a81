"""Tests for the batched fitness engine (column store + Gram LOO sweep).

Three layers of checks:

* the engine's column store — one basis per dataset, each spec's design
  a column selection from it — reproduces ``DesignMatrixBuilder``
  columns bit-for-bit when both are fitted on the same dataset;
* the engine's Gram-path fits match a row-level weighted-``lstsq``
  reference over the *same shared columns* to ~1e-8, and the minimum-norm
  branch of ``solve_gram`` agrees with its Cholesky branch;
* engine fitness tracks the reference oracle closely enough to preserve
  ranking on structured data (and equals it on discrete hardware levels,
  all on the Cholesky path), and degenerate inputs fail the same way.
"""

import numpy as np
import pytest

from repro.core import (
    DesignMatrixBuilder,
    FitnessEngine,
    GeneticSearch,
    ModelSpec,
    TransformKind,
    derive_app_splits,
    evaluate_spec,
    fit_ols,
    median_error,
    prune_design,
)
from repro.core.engine import evaluate_chunk
from repro.core.fitness import FAILED_FITNESS
from tests.conftest import make_synthetic_dataset


def spec_from_genes(names, genes, interactions=frozenset()):
    return ModelSpec(
        transforms={n: TransformKind(g) for n, g in zip(names, genes)},
        interactions=interactions,
    )


SPEC_CASES = [
    ((1, 1, 1, 1), frozenset()),
    ((2, 3, 1, 4), frozenset({("x1", "y1")})),
    ((0, 0, 1, 0), frozenset({("x2", "y2")})),
    ((4, 4, 4, 4), frozenset({("x1", "x2"), ("x1", "y1")})),
    ((0, 0, 0, 0), frozenset()),  # intercept-only
]


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(nonlinear=True)


class TestColumnStore:
    """``FitnessEngine.design``: one basis per dataset, every spec's design
    a column selection from it."""

    @pytest.mark.parametrize("genes,interactions", SPEC_CASES)
    def test_matches_design_matrix_builder(self, dataset, genes, interactions):
        """Column selection must equal a builder fitted on the same data,
        bit-for-bit, including column names, ordering and layout."""
        spec = spec_from_genes(dataset.variable_names, genes, interactions)
        design, names = FitnessEngine(dataset, 0).design(spec)
        builder = DesignMatrixBuilder(spec)
        reference = builder.fit_transform(dataset)
        assert tuple(names) == builder.column_names
        assert design.shape == reference.shape
        assert design.flags["C_CONTIGUOUS"] and reference.flags["C_CONTIGUOUS"]
        assert design.tobytes() == reference.tobytes()

    def test_columns_cached_across_specs(self, dataset):
        """One build per column computed — the basis once, then each spec's
        interaction products — and one hit per basis column a spec takes."""
        names = dataset.variable_names
        splines = ModelSpec(transforms=dict.fromkeys(names, TransformKind.SPLINE))
        width = len(DesignMatrixBuilder(splines).fit(dataset).column_names)
        engine = FitnessEngine(dataset, 0)
        spec = spec_from_genes(names, (1, 2, 3, 4), frozenset({("x1", "y1")}))
        _, taken = engine.design(spec)
        assert engine.column_builds == width + 1
        assert engine.column_hits == len(taken) - 1
        engine.design(spec)
        engine.design(spec_from_genes(names, (0, 0, 0, 0)))
        stats = engine.stats()
        hits, builds = 2 * (len(taken) - 1), width + 2  # the basis is computed once
        assert (stats["column_hits"], stats["column_builds"]) == (hits, builds)
        assert stats["column_hit_rate"] == hits / (hits + builds)

    def test_unknown_variable_rejected(self, dataset):
        engine = FitnessEngine(dataset, 0)
        with pytest.raises(ValueError, match="unknown variable 'nope'"):
            engine.design(ModelSpec(transforms={"nope": TransformKind.LINEAR}))


class TestEngineAgainstRowLevelReference:
    """The Gram path must match row-level weighted lstsq over the same
    shared columns — isolating the linear-algebra reformulation from the
    (documented) shared-transform deviation."""

    def reference_fitness(self, dataset, spec, splits, weight=2.0):
        builder = DesignMatrixBuilder(spec)
        design, names = builder.fit_transform(dataset), builder.column_names
        if design.shape[1]:
            pruned, kept_names, _ = prune_design(design, names)
        else:
            pruned, kept_names = design, []
        y = np.log(dataset.targets())
        targets = dataset.targets()
        per_app = {}
        for app in dataset.applications:
            train_idx, val_idx = splits[app]
            mask = np.ones(len(dataset), dtype=bool)
            mask[val_idx] = False
            weights = np.ones(len(dataset))
            weights[train_idx] = weight
            fit = fit_ols(pruned[mask], y[mask], kept_names, weights[mask])
            beta = np.concatenate([[fit.intercept], fit.coefficients])
            augmented = np.column_stack([np.ones(len(dataset)), pruned])
            linear = np.clip(augmented[val_idx] @ beta, -50.0, 50.0)
            predictions = np.exp(linear)
            per_app[app] = min(
                median_error(predictions, targets[val_idx]), FAILED_FITNESS
            )
        return per_app

    @pytest.mark.parametrize("genes,interactions", SPEC_CASES)
    def test_gram_matches_row_level_fits(self, dataset, genes, interactions):
        spec = spec_from_genes(dataset.variable_names, genes, interactions)
        splits = derive_app_splits(dataset, 77)
        engine = FitnessEngine(dataset, 77)
        result = engine.evaluate(spec)
        expected = self.reference_fitness(dataset, spec, splits)
        for app, error in expected.items():
            assert result.per_application[app] == pytest.approx(error, abs=1e-8)

    def test_min_norm_branch_matches_cholesky(self, dataset, monkeypatch):
        """A Cholesky that always fails forces solve_gram's minimum-norm
        branch for every application — which must agree with the
        Cholesky path and be tallied as ``lstsq_fallbacks``."""
        spec = spec_from_genes(
            dataset.variable_names, (2, 3, 1, 4), frozenset({("x1", "y1")})
        )
        gram_engine = FitnessEngine(dataset, 5)
        a = gram_engine.evaluate(spec)

        def no_cholesky(matrix):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        min_norm_engine = FitnessEngine(dataset, 5)
        b = min_norm_engine.evaluate(spec)
        assert gram_engine.lstsq_fallbacks == 0
        assert gram_engine.gram_fits == len(dataset.applications)
        assert min_norm_engine.gram_fits == 0
        assert min_norm_engine.lstsq_fallbacks == len(dataset.applications)
        for app, error in a.per_application.items():
            assert b.per_application[app] == pytest.approx(error, abs=1e-8)


class TestEngineAgainstOracle:
    def test_tracks_reference_oracle(self, dataset):
        """Engine fitness differs from the oracle only by the documented
        shared-transform/shared-prune deviations — small on this data."""
        splits = derive_app_splits(dataset, 9)
        engine = FitnessEngine(dataset, 9)
        names = dataset.variable_names
        for genes, interactions in SPEC_CASES[:4]:
            spec = spec_from_genes(names, genes, interactions)
            oracle = evaluate_spec(
                spec, dataset, np.random.default_rng(0), splits=splits
            )
            batched = engine.evaluate(spec)
            assert batched.mean_error == pytest.approx(
                oracle.mean_error, abs=5e-3
            )

    @pytest.mark.parametrize(
        "genes,interactions",
        [
            ((1, 1, 4, 4), frozenset()),
            ((1, 2, 4, 3), frozenset({("x1", "y1")})),
            ((2, 1, 4, 4), frozenset({("x1", "y1"), ("x2", "y2")})),
        ],
    )
    def test_discrete_hardware_levels_match_oracle(self, genes, interactions):
        """Hardware parameters take a few levels, so their cubic and spline
        bases alias the intercept.  The shared prune drops those columns:
        every fit takes the Cholesky path and equals the oracle's."""
        ds = make_synthetic_dataset(hw_levels=(0.5, 1.0, 1.5, 2.0))
        spec = spec_from_genes(ds.variable_names, genes, interactions)
        splits = derive_app_splits(ds, 9)
        engine = FitnessEngine(ds, 9)
        batched = engine.evaluate(spec)
        oracle = evaluate_spec(spec, ds, np.random.default_rng(0), splits=splits)
        for app, error in oracle.per_application.items():
            assert batched.per_application[app] == pytest.approx(error, rel=1e-6)
        assert engine.lstsq_fallbacks == 0
        assert engine.gram_fits == len(ds.applications)

    def test_degenerate_application_fails(self):
        ds = make_synthetic_dataset(n_per_app=1, apps=("solo", "duo"))
        engine = FitnessEngine(ds, 0)
        spec = spec_from_genes(ds.variable_names, (1, 1, 1, 1))
        result = engine.evaluate(spec)
        assert result.per_application["solo"] == FAILED_FITNESS
        assert result.per_application["duo"] == FAILED_FITNESS

    def test_non_positive_targets_fail_like_oracle(self):
        from repro.core import ProfileDataset, ProfileRecord

        ds = ProfileDataset(("x1",), ("y1",))
        rng = np.random.default_rng(0)
        for app in ("a", "b"):
            for _ in range(6):
                ds.add(
                    ProfileRecord(
                        app, rng.normal(size=1), rng.normal(size=1), -1.0
                    )
                )
        engine = FitnessEngine(ds, 0)
        spec = spec_from_genes(ds.variable_names, (1, 1))
        result = engine.evaluate(spec)
        assert result.mean_error == FAILED_FITNESS

    def test_stats_accumulate(self, dataset):
        engine = FitnessEngine(dataset, 0)
        spec = spec_from_genes(dataset.variable_names, (1, 2, 1, 1))
        engine.evaluate(spec)
        engine.evaluate(spec)
        stats = engine.stats()
        assert stats["specs_evaluated"] == 2
        assert stats["gram_fits"] == 2 * len(dataset.applications)
        assert stats["column_hit_rate"] > 0.0


class TestEvaluateChunk:
    def test_matches_engine(self, dataset):
        names = dataset.variable_names
        specs = [spec_from_genes(names, g, i) for g, i in SPEC_CASES[:3]]
        engine = FitnessEngine(dataset, 13)
        expected = engine.evaluate_many(specs)
        results, stats = evaluate_chunk(dataset, 13, specs)
        assert [r.mean_error for r in results] == pytest.approx(
            [r.mean_error for r in expected]
        )
        assert stats["specs_evaluated"] == len(specs)


class TestDeriveAppSplits:
    def test_partition_and_determinism(self, dataset):
        splits = derive_app_splits(dataset, 42)
        again = derive_app_splits(dataset, 42)
        seen = []
        for app in dataset.applications:
            train, val = splits[app]
            t2, v2 = again[app]
            assert np.array_equal(train, t2) and np.array_equal(val, v2)
            assert len(train) > 0 and len(val) > 0
            rows = set(train) | set(val)
            app_rows = {
                i for i, r in enumerate(dataset.records) if r.application == app
            }
            assert rows == app_rows
            seen.extend(rows)
        assert sorted(seen) == list(range(len(dataset)))

    def test_seed_changes_splits(self, dataset):
        a = derive_app_splits(dataset, 1)
        b = derive_app_splits(dataset, 2)
        app = dataset.applications[0]
        assert not np.array_equal(a[app][0], b[app][0])

    def test_independent_of_other_applications(self):
        """An application's split depends only on (seed, its own rows) —
        not on which other applications share the dataset."""
        full = make_synthetic_dataset(apps=("alpha", "beta", "gamma"))
        reduced = full.without_application("gamma")
        full_splits = derive_app_splits(full, 3)
        reduced_splits = derive_app_splits(reduced, 3)
        for app in ("alpha", "beta"):
            assert np.array_equal(full_splits[app][0], reduced_splits[app][0])
            assert np.array_equal(full_splits[app][1], reduced_splits[app][1])

    def test_single_record_application_gets_empty_validation(self):
        ds = make_synthetic_dataset(n_per_app=1, apps=("solo",))
        train, val = derive_app_splits(ds, 0)["solo"]
        assert len(train) == 1 and len(val) == 0

    def test_invalid_fraction_rejected(self, dataset):
        with pytest.raises(ValueError):
            derive_app_splits(dataset, 0, train_fraction=1.0)


class TestFixedSplitOracle:
    def test_evaluate_spec_with_splits_is_noise_free(self, dataset):
        """With fixed splits, identical specs score identically no matter
        the rng — the correctness prerequisite for memoization."""
        spec = spec_from_genes(dataset.variable_names, (1, 1, 1, 1))
        splits = derive_app_splits(dataset, 21)
        a = evaluate_spec(spec, dataset, np.random.default_rng(0), splits=splits)
        b = evaluate_spec(spec, dataset, np.random.default_rng(999), splits=splits)
        assert a.mean_error == b.mean_error
        assert a.per_application == b.per_application


class TestSearchIntegration:
    def test_memoization_reduces_evaluations(self, dataset):
        search = GeneticSearch(population_size=10, seed=0, n_workers=1)
        search.run(dataset, generations=4)
        stats = search.last_eval_stats
        assert stats["candidates_scored"] == 10 * 4
        assert stats["memo_hits"] > 0  # elites are never re-scored
        assert (
            stats["engine_evaluations"]
            == stats["candidates_scored"] - stats["memo_hits"]
        )
        assert 0.0 < stats["memo_hit_rate"] < 1.0
        assert stats["column_hit_rate"] > 0.5

    def test_engine_and_oracle_paths_agree_on_winner(self, dataset):
        """The benchmark asserts this at scale; keep a miniature version
        in the unit suite."""
        engine = GeneticSearch(population_size=10, seed=1, n_workers=1).run(
            dataset, generations=3
        )
        oracle = GeneticSearch(
            population_size=10, seed=1, n_workers=1, evaluator=evaluate_spec
        ).run(dataset, generations=3)
        assert (
            engine.best_chromosome == oracle.best_chromosome
            or engine.best_fitness.fitness
            == pytest.approx(oracle.best_fitness.fitness, abs=1e-2)
        )

    def test_parallel_engine_matches_serial(self, dataset):
        serial = GeneticSearch(population_size=6, seed=4, n_workers=1).run(
            dataset, generations=2
        )
        parallel = GeneticSearch(population_size=6, seed=4, n_workers=2).run(
            dataset, generations=2
        )
        assert [f.fitness for f in serial.fitnesses] == pytest.approx(
            [f.fitness for f in parallel.fitnesses]
        )
        assert serial.best_chromosome == parallel.best_chromosome
