"""Unit and property tests for OLS/weighted regression and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoxplotStats,
    absolute_percentage_errors,
    accumulate_gram,
    fit_ols,
    median_error,
    pearson_correlation,
    prune_design,
    r_squared,
    solve_gram,
    spearman_correlation,
)


class TestFitOLS:
    def test_recovers_exact_line(self):
        x = np.linspace(0, 10, 30)[:, None]
        z = 2.0 + 3.0 * x[:, 0]
        fit = fit_ols(x, z)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.coefficients[0] == pytest.approx(3.0)

    def test_matches_polyfit(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        z = 1.0 - 2.0 * x + rng.normal(0, 0.1, size=100)
        fit = fit_ols(x[:, None], z)
        slope, intercept = np.polyfit(x, z, 1)
        assert fit.coefficients[0] == pytest.approx(slope, rel=1e-9)
        assert fit.intercept == pytest.approx(intercept, rel=1e-9)

    def test_residuals_orthogonal_to_design(self):
        """The defining property of least squares."""
        rng = np.random.default_rng(1)
        design = rng.normal(size=(80, 4))
        targets = rng.normal(size=80)
        fit = fit_ols(design, targets)
        residuals = targets - fit.predict(design)
        assert np.abs(design.T @ residuals).max() < 1e-8
        assert residuals.sum() == pytest.approx(0.0, abs=1e-8)

    def test_weighted_prefers_heavy_rows(self):
        design = np.array([[0.0], [1.0]])
        targets = np.array([0.0, 10.0])
        # Two inconsistent observations at x=1.
        design = np.vstack([design, [[1.0]]])
        targets = np.append(targets, 0.0)
        heavy_on_ten = fit_ols(design, targets, weights=np.array([1, 100, 1]))
        heavy_on_zero = fit_ols(design, targets, weights=np.array([1, 1, 100]))
        at_one = lambda f: f.predict(np.array([[1.0]]))[0]
        assert at_one(heavy_on_ten) > at_one(heavy_on_zero)

    def test_zero_weight_row_ignored(self):
        design = np.array([[1.0], [2.0], [3.0]])
        targets = np.array([1.0, 2.0, 100.0])
        fit = fit_ols(design, targets, weights=np.array([1.0, 1.0, 0.0]))
        assert fit.predict(np.array([[3.0]]))[0] == pytest.approx(3.0)

    def test_rank_deficiency_tolerated(self):
        design = np.column_stack([np.arange(10.0), np.arange(10.0)])
        fit = fit_ols(design, np.arange(10.0))
        assert np.isfinite(fit.coefficients).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_ols(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            fit_ols(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            fit_ols(np.zeros((3, 1)), np.zeros(3), weights=np.array([-1, 1, 1]))
        with pytest.raises(ValueError):
            fit_ols(np.zeros(3), np.zeros(3))

    def test_named_coefficients(self):
        fit = fit_ols(np.arange(6.0).reshape(3, 2), np.arange(3.0), ("a", "b"))
        assert set(fit.named_coefficients()) == {"a", "b"}

    def test_predict_validates_width(self):
        fit = fit_ols(np.arange(6.0).reshape(3, 2), np.arange(3.0))
        with pytest.raises(ValueError):
            fit.predict(np.zeros((2, 3)))

    @given(st.integers(1, 5), st.integers(10, 40))
    @settings(max_examples=30, deadline=None)
    def test_interpolates_exact_linear_systems(self, p, n):
        rng = np.random.default_rng(p * 1000 + n)
        design = rng.normal(size=(n, p))
        beta = rng.normal(size=p)
        targets = design @ beta + 1.5
        fit = fit_ols(design, targets)
        assert np.allclose(fit.predict(design), targets, atol=1e-8)


class TestGramPath:
    """The normal-equation formulation used by the fitness engine."""

    def test_matches_lstsq_unweighted(self):
        rng = np.random.default_rng(0)
        design = rng.normal(size=(60, 4))
        targets = 1.5 + design @ rng.normal(size=4) + rng.normal(0, 0.1, 60)
        ref = fit_ols(design, targets)
        fit = solve_gram(*accumulate_gram(design, targets))
        assert fit is not None
        assert fit.intercept == pytest.approx(ref.intercept, abs=1e-9)
        assert np.allclose(fit.coefficients, ref.coefficients, atol=1e-9)

    def test_matches_lstsq_weighted(self):
        rng = np.random.default_rng(1)
        design = rng.normal(size=(50, 3))
        targets = design @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, 0.2, 50)
        weights = rng.uniform(0.25, 4.0, size=50)
        ref = fit_ols(design, targets, weights=weights)
        fit = solve_gram(*accumulate_gram(design, targets, weights))
        assert fit is not None
        assert fit.intercept == pytest.approx(ref.intercept, abs=1e-8)
        assert np.allclose(fit.coefficients, ref.coefficients, atol=1e-8)

    def test_zero_weight_rows_ignored(self):
        """Rows with zero weight contribute nothing to the Gram system —
        the fit equals the fit on the surviving rows alone."""
        rng = np.random.default_rng(2)
        design = rng.normal(size=(40, 2))
        targets = design @ np.array([2.0, -1.0]) + rng.normal(0, 0.05, 40)
        weights = np.ones(40)
        weights[25:] = 0.0
        fit = solve_gram(*accumulate_gram(design, targets, weights))
        sub = solve_gram(*accumulate_gram(design[:25], targets[:25]))
        assert fit is not None and sub is not None
        assert fit.intercept == pytest.approx(sub.intercept, abs=1e-9)
        assert np.allclose(fit.coefficients, sub.coefficients, atol=1e-9)

    def test_rank_deficient_gets_min_norm(self):
        """Duplicated columns make the Gram matrix singular: Cholesky fails
        and solve_gram returns the minimum-norm solution, the same one
        lstsq finds on the rows."""
        column = np.arange(12.0)
        design = np.column_stack([column, column])
        gram, moment = accumulate_gram(design, column)
        fit = solve_gram(gram, moment)
        assert fit is not None and fit.min_norm
        expected, *_ = np.linalg.lstsq(
            np.column_stack([np.ones(12), design]), column, rcond=None
        )
        assert np.allclose(np.r_[fit.intercept, fit.coefficients], expected)

    def test_ill_conditioned_solved_by_cholesky(self):
        """No condition cutoff: a Gram with cond > 1e10 that Cholesky
        factors is solved on the fast path, and its predictions on the
        rows agree with lstsq to the accuracy cond(G) allows."""
        rng = np.random.default_rng(3)
        base = rng.normal(size=30)
        design = np.column_stack([base, base + 1e-5 * rng.normal(size=30)])
        targets = 1.0 + base + rng.normal(0, 0.1, 30)
        gram, moment = accumulate_gram(design, targets)
        assert np.linalg.cond(gram) > 1e10
        fit = solve_gram(gram, moment)
        assert fit is not None and not fit.min_norm
        ref = fit_ols(design, targets)
        assert np.allclose(fit.predict(design), ref.predict(design), atol=1e-6)

    def test_non_finite_declined(self):
        gram = np.array([[np.nan, 0.0], [0.0, 1.0]])
        assert solve_gram(gram, np.zeros(2)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            accumulate_gram(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            accumulate_gram(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            accumulate_gram(
                np.zeros((3, 1)), np.zeros(3), weights=np.array([-1.0, 1, 1])
            )
        with pytest.raises(ValueError):
            solve_gram(np.eye(3), np.zeros(2))
        with pytest.raises(ValueError):
            solve_gram(np.eye(2), np.zeros(2), column_names=("a", "b"))

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_gram_matches_lstsq(self, seed, p, weighted):
        """On well-conditioned data the Cholesky solution of the normal
        equations matches the SVD-backed lstsq fit within tolerance."""
        rng = np.random.default_rng(seed)
        n = 30 + 6 * p
        design = rng.normal(size=(n, p))
        targets = 0.5 + design @ rng.normal(size=p) + rng.normal(0, 0.1, n)
        weights = rng.uniform(0.5, 2.0, size=n) if weighted else None
        ref = fit_ols(design, targets, weights=weights)
        fit = solve_gram(*accumulate_gram(design, targets, weights))
        assert fit is not None  # gaussian designs of this shape are well-conditioned
        assert fit.intercept == pytest.approx(ref.intercept, abs=1e-7)
        assert np.allclose(fit.coefficients, ref.coefficients, atol=1e-7)

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_pruned_aliased_design_matches_lstsq(self, seed, p, weighted):
        """Designs with a duplicated column and the cubic-plus-knot basis
        of a 4-level variable (which spans the intercept): after
        prune_design, the Gram system factors by Cholesky and its
        predictions equal lstsq's on the unpruned rows."""
        rng = np.random.default_rng(seed)
        n = 30 + 6 * p
        base = rng.normal(size=(n, p))
        levels = np.array([0.5, 1.0, 2.0, 4.0])[rng.integers(0, 4, size=n)]
        z = (levels - levels.mean()) / levels.std()
        knot = np.maximum(z - np.median(z), 0.0) ** 3
        design = np.column_stack([base, base[:, 0], z, z**2, z**3, knot])
        design = design[:, rng.permutation(design.shape[1])]
        targets = 0.5 + design @ rng.normal(size=design.shape[1])
        targets = targets + rng.normal(0, 0.1, n)
        weights = rng.uniform(0.5, 2.0, size=n) if weighted else None
        names = [f"c{j}" for j in range(design.shape[1])]
        pruned, kept_names, _ = prune_design(design, names)
        fit = solve_gram(*accumulate_gram(pruned, targets, weights), kept_names)
        assert fit is not None and not fit.min_norm
        ref = fit_ols(design, targets, weights=weights)
        assert np.allclose(fit.predict(pruned), ref.predict(design), atol=1e-8)


class TestRSquared:
    def test_perfect(self):
        z = np.arange(10.0)
        assert r_squared(z, z) == 1.0

    def test_mean_prediction_zero(self):
        z = np.arange(10.0)
        assert r_squared(np.full(10, z.mean()), z) == pytest.approx(0.0)


class TestMetrics:
    def test_ape_basic(self):
        errors = absolute_percentage_errors(np.array([1.1]), np.array([1.0]))
        assert errors[0] == pytest.approx(0.1)

    def test_ape_rejects_zero_targets(self):
        with pytest.raises(ValueError):
            absolute_percentage_errors(np.array([1.0]), np.array([0.0]))

    def test_median_error(self):
        preds = np.array([1.0, 2.0, 4.0])
        targets = np.array([1.0, 1.0, 1.0])
        assert median_error(preds, targets) == 1.0  # |2-1|/1

    def test_pearson_perfect(self):
        a = np.arange(10.0)
        assert pearson_correlation(a, 2 * a + 1) == pytest.approx(1.0)

    def test_pearson_inverse(self):
        a = np.arange(10.0)
        assert pearson_correlation(a, -a) == pytest.approx(-1.0)

    def test_pearson_degenerate(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_spearman_monotone_nonlinear(self):
        a = np.arange(1.0, 11.0)
        assert spearman_correlation(a, a**3) == pytest.approx(1.0)

    def test_spearman_handles_ties(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([5.0, 5.0, 6.0, 7.0])
        assert spearman_correlation(a, b) == pytest.approx(1.0)

    def test_boxplot_stats(self):
        stats = BoxplotStats.from_errors(np.linspace(0, 1, 101))
        assert stats.median == pytest.approx(0.5)
        assert stats.q1 == pytest.approx(0.25)
        assert stats.q3 == pytest.approx(0.75)
        assert stats.n == 101

    def test_boxplot_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxplotStats.from_errors(np.array([]))

    def test_boxplot_row_format(self):
        stats = BoxplotStats.from_errors(np.array([0.1, 0.2]))
        row = stats.row("label")
        assert "label" in row and "median" in row
