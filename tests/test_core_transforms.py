"""Unit and property tests for variable transformations.

The basis columns are checked on the per-variable walk in
``tests/design_oracle.py``, the definition the compiled design program is
tested against bit for bit (``tests/test_core_program.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TransformKind,
    choose_ladder_power,
    fit_transform,
    skewness,
    spline_knots,
    stabilize,
)
from tests.design_oracle import apply, polynomial_basis, stabilized, truncated_power_basis


class TestSkewness:
    def test_symmetric_is_zero(self):
        values = np.array([-2, -1, 0, 1, 2], dtype=float)
        assert skewness(values) == pytest.approx(0.0)

    def test_right_tail_positive(self):
        values = np.concatenate([np.ones(100), [50.0]])
        assert skewness(values) > 1.0

    def test_constant_is_zero(self):
        assert skewness(np.full(10, 3.0)) == 0.0


class TestStabilize:
    def test_identity_power_one(self):
        values = np.array([1.0, 4.0, 9.0])
        assert (stabilize(values, 1) == values).all()

    def test_square_root(self):
        assert stabilize(np.array([4.0]), 2)[0] == pytest.approx(2.0)

    def test_fifth_root_matches_paper(self):
        assert stabilize(np.array([32.0]), 5)[0] == pytest.approx(2.0)

    def test_negative_values_signed(self):
        assert stabilize(np.array([-8.0]), 3)[0] == pytest.approx(-2.0)

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            stabilize(np.array([1.0]), 0)

    @given(st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_monotone(self, power):
        values = np.linspace(-10, 10, 50)
        out = stabilize(values, power)
        assert (np.diff(out) >= 0).all()


class TestLadder:
    def test_symmetric_keeps_identity(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        assert choose_ladder_power(values) == 1

    def test_lognormal_gets_root(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(3.0, 1.5, size=500)
        assert choose_ladder_power(values) >= 3

    def test_reduces_skewness(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(3.0, 1.5, size=500)
        power = choose_ladder_power(values)
        assert abs(skewness(stabilize(values, power))) < abs(skewness(values))


class TestBases:
    def test_polynomial_shapes(self):
        values = np.arange(5, dtype=float)
        assert polynomial_basis(values, 1).shape == (5, 1)
        assert polynomial_basis(values, 3).shape == (5, 3)

    def test_polynomial_columns(self):
        basis = polynomial_basis(np.array([2.0]), 3)
        assert basis.tolist() == [[2.0, 4.0, 8.0]]

    def test_polynomial_degree_validated(self):
        with pytest.raises(ValueError):
            polynomial_basis(np.array([1.0]), 4)

    def test_truncated_power_shape(self):
        knots = np.array([0.25, 0.5, 0.75])
        basis = truncated_power_basis(np.linspace(0, 1, 9), knots)
        assert basis.shape == (9, 6)  # x, x^2, x^3 + one per knot

    def test_truncated_power_zero_below_knot(self):
        knots = np.array([0.5])
        basis = truncated_power_basis(np.array([0.2, 0.9]), knots)
        assert basis[0, 3] == 0.0
        assert basis[1, 3] == pytest.approx(0.4**3)

    @given(st.floats(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_spline_continuity_at_knots(self, delta):
        """S(x) built from the truncated-power basis is C2: values approach
        the same limit from both sides of a knot."""
        knot = 0.5
        eps = 1e-6
        below = truncated_power_basis(np.array([knot - eps]), np.array([knot]))
        above = truncated_power_basis(np.array([knot + eps]), np.array([knot]))
        coef = np.array([1.0, -0.5, 0.3, 2.0 + delta])
        assert below @ coef == pytest.approx(above @ coef, abs=1e-4)

    def test_spline_knots_are_quantiles(self):
        values = np.linspace(0, 100, 1001)
        knots = spline_knots(values, 3)
        assert knots == pytest.approx([25, 50, 75], abs=0.5)

    def test_spline_knots_validated(self):
        with pytest.raises(ValueError):
            spline_knots(np.array([1.0]), 0)


class TestFitTransform:
    def test_excluded_empty(self):
        fitted = fit_transform(np.arange(10.0), TransformKind.EXCLUDED)
        assert fitted.n_columns == 0
        assert apply(fitted, np.arange(4.0)).shape == (4, 0)

    def test_linear_single_column(self):
        fitted = fit_transform(np.arange(10.0), TransformKind.LINEAR)
        assert fitted.n_columns == 1

    def test_spline_columns(self):
        rng = np.random.default_rng(0)
        fitted = fit_transform(rng.normal(size=200), TransformKind.SPLINE)
        assert fitted.n_columns == 3 + len(fitted.knots)
        assert len(fitted.knots) == 3

    def test_standardization(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5.0, 3.0, size=500)
        fitted = fit_transform(values, TransformKind.LINEAR)
        z = stabilized(fitted, values)
        assert z.mean() == pytest.approx(0.0, abs=1e-9)
        assert z.std() == pytest.approx(1.0, abs=1e-9)

    def test_replay_on_new_data(self):
        """Knots and powers estimated on training data are replayed
        verbatim — the transform of a point does not depend on what other
        points it is batched with."""
        rng = np.random.default_rng(0)
        train = rng.lognormal(2, 1, size=300)
        fitted = fit_transform(train, TransformKind.SPLINE)
        single = apply(fitted, np.array([5.0]))
        batch = apply(fitted, np.array([5.0, 100.0, 0.1]))
        assert single[0] == pytest.approx(batch[0])

    def test_long_tail_triggers_stabilization(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(3, 1.5, size=400)
        fitted = fit_transform(values, TransformKind.LINEAR)
        assert fitted.power > 1

    def test_constant_column_safe(self):
        fitted = fit_transform(np.full(50, 7.0), TransformKind.QUADRATIC)
        out = apply(fitted, np.full(5, 7.0))
        assert np.isfinite(out).all()

    def test_column_suffixes_match_width(self):
        rng = np.random.default_rng(0)
        for kind in TransformKind:
            fitted = fit_transform(rng.normal(size=100), kind)
            assert len(fitted.column_suffixes()) == fitted.n_columns
