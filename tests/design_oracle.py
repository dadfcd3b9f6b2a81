"""The per-variable design walk: the oracle of the compiled design program.

A builder's design is defined one variable at a time: each main effect's
stabilized, standardized and clipped view expanded into its polynomial or
truncated-power spline basis, then each interaction's product of two
stabilized-linear views.  :class:`repro.core.design.DesignProgram`
computes the same columns one column group at a time; the tests check it
against this walk bit for bit.
"""

import numpy as np

from repro.core.design import DesignMatrixBuilder
from repro.core.transforms import FittedTransform, TransformKind, stabilize


def truncated_power_basis(values: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """The paper's piecewise-cubic basis: x, x^2, x^3, (x-k)+^3 per knot."""
    values = np.asarray(values, dtype=float)
    columns = [values, values**2, values**3]
    for knot in np.asarray(knots, dtype=float):
        columns.append(np.maximum(values - knot, 0.0) ** 3)
    return np.column_stack(columns)


def polynomial_basis(values: np.ndarray, degree: int) -> np.ndarray:
    """Columns x, x^2, ..., x^degree."""
    if not 1 <= degree <= 3:
        raise ValueError(f"degree must be 1..3, got {degree}")
    values = np.asarray(values, dtype=float)
    return np.column_stack([values**d for d in range(1, degree + 1)])


def stabilized(fitted: FittedTransform, values: np.ndarray) -> np.ndarray:
    """Stabilized, standardized, range-clamped values (the 'linear' view
    of the variable)."""
    z = stabilize(values, fitted.power)
    z = (z - fitted.center) / fitted.scale
    return np.clip(z, fitted.low, fitted.high)


def apply(fitted: FittedTransform, values: np.ndarray) -> np.ndarray:
    """Basis columns of one fitted variable, shape (n, n_columns)."""
    if fitted.kind == TransformKind.EXCLUDED:
        return np.empty((len(np.asarray(values)), 0))
    z = stabilized(fitted, values)
    if fitted.kind == TransformKind.SPLINE:
        return truncated_power_basis(z, fitted.knots)
    return polynomial_basis(z, int(fitted.kind))


def transform_matrix(builder: DesignMatrixBuilder, matrix: np.ndarray) -> np.ndarray:
    """The fitted builder's design for a raw ``(n, n_variables)`` array."""
    matrix = np.asarray(matrix, dtype=float)
    name_to_col = {name: i for i, name in enumerate(builder.variable_names)}
    blocks = []
    for name, fitted in builder._fitted.items():
        if fitted.kind == TransformKind.EXCLUDED:
            continue
        blocks.append(apply(fitted, matrix[:, name_to_col[name]]))
    for a, b in sorted(builder.spec.interactions):
        va = stabilized(builder._linear_views[a], matrix[:, name_to_col[a]])
        vb = stabilized(builder._linear_views[b], matrix[:, name_to_col[b]])
        blocks.append((va * vb)[:, None])
    if not blocks:
        return np.empty((matrix.shape[0], 0))
    return np.column_stack(blocks)
