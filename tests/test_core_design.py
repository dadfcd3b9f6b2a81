"""Unit tests for model specs, design matrices, and collinearity pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DesignMatrixBuilder,
    ModelSpec,
    TransformKind,
    normalize_interaction,
    prune_correlated,
    prune_design,
    prune_rank_deficient,
    variance_inflation_factors,
)
from tests.conftest import make_synthetic_dataset


def prune_correlated_loop(matrix, threshold=0.995):
    """Reference: the pairwise screen one dot product at a time."""
    n, p = matrix.shape
    stds = matrix.std(axis=0)
    centered = matrix - matrix.mean(axis=0)
    kept = []
    for j in range(p):
        if stds[j] < 1e-12:
            continue
        if not any(
            abs(float(centered[:, j] @ centered[:, k]) / (n * stds[j] * stds[k]))
            > threshold
            for k in kept
        ):
            kept.append(j)
    return kept


def prune_rank_deficient_loop(matrix, tolerance=1e-8):
    """Reference: modified Gram-Schmidt, one basis vector at a time."""
    kept, basis = [], []
    for j in range(matrix.shape[1]):
        v = matrix[:, j].astype(float)
        norm0 = np.linalg.norm(v)
        if norm0 < 1e-300:
            continue
        for q in basis:
            v = v - (q @ v) * q
        norm = np.linalg.norm(v)
        if norm > tolerance * norm0:
            kept.append(j)
            basis.append(v / norm)
    return kept


def spec_for(ds, **kinds):
    transforms = {name: TransformKind.EXCLUDED for name in ds.variable_names}
    transforms.update({k: TransformKind[v.upper()] for k, v in kinds.items()})
    return ModelSpec(transforms=transforms)


class TestModelSpec:
    def test_normalize_interaction_sorts(self):
        assert normalize_interaction("y1", "x1") == ("x1", "y1")

    def test_self_interaction_rejected(self):
        with pytest.raises(ValueError):
            normalize_interaction("x1", "x1")

    def test_interaction_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(
                transforms={"x1": TransformKind.LINEAR},
                interactions=frozenset({("x1", "zz")}),
            )

    def test_included_variables(self):
        spec = ModelSpec(
            transforms={
                "a": TransformKind.LINEAR,
                "b": TransformKind.EXCLUDED,
                "c": TransformKind.SPLINE,
            }
        )
        assert set(spec.included_variables) == {"a", "c"}

    def test_complexity_counts_terms(self):
        spec = ModelSpec(
            transforms={"a": TransformKind.CUBIC, "b": TransformKind.LINEAR},
            interactions=frozenset({("a", "b")}),
        )
        assert spec.complexity() == 5

    def test_describe_mentions_terms(self):
        spec = ModelSpec(
            transforms={"a": TransformKind.LINEAR, "b": TransformKind.EXCLUDED},
            interactions=frozenset({("a", "b")}),
        )
        text = spec.describe()
        assert "a: linear" in text and "a * b" in text


class TestDesignMatrixBuilder:
    def test_columns_for_simple_spec(self, synthetic_dataset):
        spec = spec_for(synthetic_dataset, x1="linear", y1="quadratic")
        builder = DesignMatrixBuilder(spec)
        design = builder.fit_transform(synthetic_dataset)
        assert design.shape == (len(synthetic_dataset), 3)
        assert set(builder.column_names) == {"x1", "y1", "y1^2"}

    def test_interaction_column(self, synthetic_dataset):
        spec = ModelSpec(
            transforms={
                name: TransformKind.EXCLUDED
                for name in synthetic_dataset.variable_names
            },
            interactions=frozenset({("x1", "y1")}),
        )
        builder = DesignMatrixBuilder(spec)
        design = builder.fit_transform(synthetic_dataset)
        assert design.shape[1] == 1
        assert builder.column_names == ("x1*y1",)

    def test_interaction_is_product_of_stabilized_views(self, synthetic_dataset):
        spec = ModelSpec(
            transforms={
                name: TransformKind.EXCLUDED
                for name in synthetic_dataset.variable_names
            },
            interactions=frozenset({("x1", "y1")}),
        )
        builder = DesignMatrixBuilder(spec)
        design = builder.fit_transform(synthetic_dataset)
        # Product of two standardized columns: mean approx 0 for independents.
        assert abs(design[:, 0].mean()) < 0.5

    def test_transform_requires_fit(self, synthetic_dataset):
        builder = DesignMatrixBuilder(spec_for(synthetic_dataset, x1="linear"))
        with pytest.raises(RuntimeError):
            builder.transform(synthetic_dataset)

    def test_transform_checks_variables(self, synthetic_dataset):
        builder = DesignMatrixBuilder(spec_for(synthetic_dataset, x1="linear"))
        builder.fit(synthetic_dataset)
        other = make_synthetic_dataset(apps=("zeta",))
        # Same variable names: fine.
        assert builder.transform(other).shape[0] == len(other)

    def test_unknown_spec_variable_rejected(self, synthetic_dataset):
        spec = ModelSpec(transforms={"nope": TransformKind.LINEAR})
        with pytest.raises(ValueError):
            DesignMatrixBuilder(spec).fit(synthetic_dataset)

    def test_empty_dataset_rejected(self, synthetic_dataset):
        from repro.core import ProfileDataset

        spec = spec_for(synthetic_dataset, x1="linear")
        with pytest.raises(ValueError):
            DesignMatrixBuilder(spec).fit(
                ProfileDataset(synthetic_dataset.x_names, synthetic_dataset.y_names)
            )

    def test_train_statistics_replayed(self, synthetic_dataset):
        spec = spec_for(synthetic_dataset, x1="spline")
        builder = DesignMatrixBuilder(spec)
        builder.fit(synthetic_dataset)
        single = synthetic_dataset.subset([0])
        row_single = builder.transform(single)
        row_batch = builder.transform(synthetic_dataset)[0:1]
        assert np.allclose(row_single, row_batch)


class TestCollinearity:
    def test_prune_correlated_drops_duplicate(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=100)
        matrix = np.column_stack([a, a * 2.0, rng.normal(size=100)])
        kept = prune_correlated(matrix)
        assert kept == [0, 2]

    def test_prune_correlated_keeps_independent(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(100, 4))
        assert prune_correlated(matrix) == [0, 1, 2, 3]

    def test_prune_correlated_drops_constant(self):
        matrix = np.column_stack([np.ones(50), np.arange(50.0)])
        assert prune_correlated(matrix) == [1]

    def test_prune_rank_deficient_catches_multiway(self):
        """c = a + b is invisible to pairwise screening but caught by the
        rank sweep — the paper's 'subtle collinearity'."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        matrix = np.column_stack([a, b, a + b])
        assert prune_correlated(matrix) == [0, 1, 2]  # pairwise misses it
        assert prune_rank_deficient(matrix) == [0, 1]  # rank sweep catches it

    def test_prune_design_pipeline(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        matrix = np.column_stack([a, a.copy(), b, a + b])
        pruned, names, kept = prune_design(matrix, ["a", "a2", "b", "ab"])
        assert names == ["a", "b"]
        assert pruned.shape[1] == 2

    def test_prune_design_drops_intercept_aliased_knot(self):
        """A 4-level hardware variable: its x, x², x³ and one knot column
        span every function of the level, the constant included.  The rank
        sweep runs against the intercept, so the knot column goes and
        ``[1 | pruned]`` keeps full column rank."""
        ds = make_synthetic_dataset(hw_levels=(0.5, 1.0, 1.5, 2.0))
        builder = DesignMatrixBuilder(spec_for(ds, y1="spline"))
        design = builder.fit_transform(ds)
        names = list(builder.column_names)
        assert names[:3] == ["y1", "y1^2", "y1^3"]
        assert any("~k" in name for name in names[3:])
        pruned, kept_names, _ = prune_design(design, names)
        assert kept_names == ["y1", "y1^2", "y1^3"]
        augmented = np.column_stack([np.ones(len(ds)), pruned])
        assert np.linalg.matrix_rank(augmented) == augmented.shape[1]

    def test_prune_design_validates_names(self):
        with pytest.raises(ValueError):
            prune_design(np.zeros((5, 2)), ["only-one"])

    def test_vif_flags_collinear(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=200)
        matrix = np.column_stack(
            [a, a + rng.normal(0, 0.01, 200), rng.normal(size=200)]
        )
        vifs = variance_inflation_factors(matrix)
        assert vifs[0] > 10 and vifs[1] > 10
        assert vifs[2] < 2

    def test_vif_constant_is_infinite(self):
        matrix = np.column_stack([np.ones(50), np.arange(50.0)])
        assert variance_inflation_factors(matrix)[0] == np.inf

    def test_locality_quotient_example(self):
        """The paper's own example: spatial locality is the quotient of two
        temporal measures; after a log-style transform the three variables
        are linearly dependent and must be pruned."""
        rng = np.random.default_rng(0)
        temporal_64 = rng.lognormal(3, 1, 300)
        temporal_256 = temporal_64 * rng.lognormal(0.5, 0.1, 300)
        spatial = temporal_256 / temporal_64
        matrix = np.log(np.column_stack([temporal_64, temporal_256, spatial]))
        kept = prune_rank_deficient(matrix)
        assert len(kept) == 2

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(8, 80))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_sweeps_match_loop_references(self, seed, p, n):
        """Both sweeps keep exactly the columns their one-vector-at-a-time
        references keep, on designs with duplicated, summed, constant and
        intercept-aliased (4-level cubic-plus-knot) columns."""
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, p))
        levels = np.array([0.5, 1.0, 2.0, 4.0])[rng.integers(0, 4, size=n)]
        z = (levels - levels.mean()) / max(levels.std(), 1e-12)
        matrix = np.column_stack([
            base, base[:, 0], base[:, 0] + base[:, -1], np.full(n, 3.0),
            z, z**2, z**3, np.maximum(z - np.median(z), 0.0) ** 3,
        ])
        matrix = matrix[:, rng.permutation(matrix.shape[1])]
        assert prune_correlated(matrix) == prune_correlated_loop(matrix)
        augmented = np.column_stack([np.ones(n), matrix])
        assert prune_rank_deficient(augmented) == prune_rank_deficient_loop(augmented)
