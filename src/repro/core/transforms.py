"""Variable transformations (§3.1, "Transforming Variables").

Three families:

* **Variance stabilization** — long-tailed software measures are replaced
  by a power transform ``x -> x**(1/n)`` before modeling.  The power is
  chosen automatically by a Stata-``ladder``-style search that minimizes
  the skewness of the transformed sample (Figure 3 uses n = 5).
* **Polynomial bases** — linear, quadratic, cubic.
* **Piecewise-cubic splines** — the paper's truncated-power form
  ``S(x) = b0 + b1 x + b2 x^2 + b3 x^3 + b4 (x-a)+^3 + b5 (x-b)+^3 +
  b6 (x-c)+^3`` with three inflection knots placed at training-data
  quantiles, so different coefficients are fit to different parts of the
  space.

Every basis is *stateful*: knots and stabilization powers are estimated on
training data (:func:`fit_transform`) and replayed verbatim on
validation/prediction data.  This module estimates that state; the basis
columns themselves are computed by
:class:`repro.core.design.DesignProgram`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

import numpy as np


class TransformKind(enum.IntEnum):
    """Gene values of the chromosome encoding (§3.4).

    0 excludes the variable; 1-3 select polynomial degree; 4 selects a
    piecewise-cubic spline with three inflection points.
    """

    EXCLUDED = 0
    LINEAR = 1
    QUADRATIC = 2
    CUBIC = 3
    SPLINE = 4


#: Each kind's row label in the paper's Table 3.
TRANSFORM_LABELS = {
    TransformKind.EXCLUDED: "un-used",
    TransformKind.LINEAR: "linear",
    TransformKind.QUADRATIC: "poly, degree 2",
    TransformKind.CUBIC: "poly, degree 3",
    TransformKind.SPLINE: "spline, 3 knots",
}

TABLE3_ROW_ORDER = tuple(TRANSFORM_LABELS[k] for k in TransformKind)


#: Candidate exponents n for the x -> x**(1/n) ladder (n >= 1, §3.1 fn. 2).
LADDER_POWERS = (1, 2, 3, 4, 5, 6, 8)

#: Number of spline inflection points (knots), from the paper's S(x).
SPLINE_KNOTS = 3


def skewness(values: np.ndarray) -> float:
    """Sample skewness; 0 for constant samples."""
    values = np.asarray(values, dtype=float)
    std = values.std()
    if std == 0 or len(values) < 3:
        return 0.0
    centered = values - values.mean()
    return float(np.mean(centered**3) / std**3)


def stabilize(values: np.ndarray, power: int) -> np.ndarray:
    """Apply the variance-stabilizing transform ``x -> sign(x)|x|^(1/power)``.

    The signed form keeps the transform monotonic for the (rare) negative
    inputs, and ``power=1`` is the identity.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    values = np.asarray(values, dtype=float)
    if power == 1:
        return values.copy()
    return np.sign(values) * np.abs(values) ** (1.0 / power)


def choose_ladder_power(values: np.ndarray, threshold: float = 0.75) -> int:
    """Pick the ladder power that minimizes |skewness|.

    Returns 1 (identity) when the raw sample is already acceptably
    symmetric (|skew| <= ``threshold``), mirroring how an analyst only
    reaches for the ladder on misbehaving variables.
    """
    values = np.asarray(values, dtype=float)
    if abs(skewness(values)) <= threshold:
        return 1
    best_power, best_skew = 1, abs(skewness(values))
    for power in LADDER_POWERS[1:]:
        s = abs(skewness(stabilize(values, power)))
        if s < best_skew - 1e-12:
            best_power, best_skew = power, s
    return best_power


def spline_knots(values: np.ndarray, n_knots: int = SPLINE_KNOTS) -> np.ndarray:
    """Interior knots at evenly spaced quantiles of the training sample."""
    if n_knots < 1:
        raise ValueError(f"n_knots must be >= 1, got {n_knots}")
    quantiles = np.linspace(0, 1, n_knots + 2)[1:-1]
    return np.quantile(np.asarray(values, dtype=float), quantiles)


@dataclasses.dataclass
class FittedTransform:
    """A transform whose data-dependent state has been estimated.

    Attributes
    ----------
    kind:
        Which basis family.
    power:
        Variance-stabilization exponent (1 = identity).
    knots:
        Spline knots in *stabilized* coordinates; ``None`` for polynomials.
    center, scale:
        Standardization of the stabilized values, so downstream design
        matrices are well conditioned regardless of raw magnitudes.
    low, high:
        Clamp range (in standardized coordinates) covering the training
        sample plus a small margin.  Cubic terms explode when evaluated
        far outside the data they were fit on — the reason Harrell's
        restricted splines force linear tails — so prediction inputs are
        clamped to this range before any basis is applied.
    """

    kind: TransformKind
    power: int = 1
    knots: Optional[np.ndarray] = None
    center: float = 0.0
    scale: float = 1.0
    low: float = -np.inf
    high: float = np.inf

    @property
    def n_columns(self) -> int:
        if self.kind == TransformKind.EXCLUDED:
            return 0
        if self.kind == TransformKind.SPLINE:
            return 3 + len(self.knots)
        return int(self.kind)

    def column_suffixes(self) -> Tuple[str, ...]:
        if self.kind == TransformKind.EXCLUDED:
            return ()
        if self.kind == TransformKind.SPLINE:
            poly = ("", "^2", "^3")
            return poly + tuple(f"~k{i + 1}" for i in range(len(self.knots)))
        return ("", "^2", "^3")[: int(self.kind)]


def fit_transform(
    values: np.ndarray,
    kind: TransformKind,
    auto_stabilize: bool = True,
) -> FittedTransform:
    """Estimate a transform's data-dependent state from training values."""
    values = np.asarray(values, dtype=float)
    if kind == TransformKind.EXCLUDED:
        return FittedTransform(kind)
    power = choose_ladder_power(values) if auto_stabilize else 1
    z = stabilize(values, power)
    center = float(z.mean())
    scale = float(z.std())
    if scale < 1e-12:
        scale = 1.0
    zs = (z - center) / scale
    spread = float(zs.max() - zs.min())
    margin = 0.1 * spread if spread > 0 else 1.0
    low = float(zs.min()) - margin
    high = float(zs.max()) + margin
    knots = None
    if kind == TransformKind.SPLINE:
        knots = spline_knots(zs)
        # Degenerate (tied) knots collapse the spline to a cubic; keep the
        # distinct ones so the basis stays full rank.
        knots = np.unique(np.round(knots, 9))
    return FittedTransform(
        kind, power=power, knots=knots, center=center, scale=scale,
        low=low, high=high,
    )
