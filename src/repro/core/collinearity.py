"""Collinearity detection and elimination (§3.1, "Choosing Variables").

Software characteristics are often linearly dependent — the paper's example
is spatial locality being the quotient of two temporal-locality measures.
"Such subtle collinearity, which prevents solvers from fitting a model, is
common amongst software variables ... the modeling heuristic must also
check for and eliminate collinear variables."

Two mechanisms:

* :func:`prune_correlated` removes columns whose pairwise correlation with
  an earlier-kept column exceeds a threshold;
* :func:`prune_rank_deficient` removes columns that a Gram-Schmidt sweep
  identifies as (numerically) linearly dependent — catching exact
  multi-way dependences that pairwise screening misses.

:func:`prune_design` runs the rank sweep on the intercept-augmented design
``[1 | X]`` that every fit solves.  A hardware parameter takes only a few
levels, so the cubic and spline bases of its standardized view can
reproduce the constant column exactly (a 4-level variable's ``x, x², x³``
and a knot column span the constant); swept without the intercept, such a
column survives and leaves the fitted system singular.

:func:`variance_inflation_factors` provides the standard VIF diagnostic
for reporting.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Pairwise |correlation| above which a column is considered redundant.
CORRELATION_THRESHOLD = 0.995

#: Relative magnitude of an R diagonal entry below which the column is
#: considered linearly dependent on its predecessors.
RANK_TOLERANCE = 1e-8


def prune_correlated(
    matrix: np.ndarray,
    threshold: float = CORRELATION_THRESHOLD,
) -> List[int]:
    """Indices of columns to *keep* after pairwise-correlation screening.

    Columns are visited left to right; a column is dropped when its absolute
    correlation with any already-kept column exceeds ``threshold``, or when
    it is (numerically) constant.  Keeping the leftmost column of each
    correlated group makes the choice deterministic.
    """
    matrix = np.asarray(matrix, dtype=float)
    n, p = matrix.shape
    if p == 0:
        return []
    stds = matrix.std(axis=0)
    centered = matrix - matrix.mean(axis=0)
    # Every pairwise correlation in one product; constant columns divide
    # by zero here but are skipped before their row or column is read.
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (centered.T @ centered) / ((n * stds)[:, None] * stds[None, :])
    kept: List[int] = []
    for j in range(p):
        if stds[j] < 1e-12:
            continue
        if (np.abs(corr[j, kept]) > threshold).any():
            continue
        kept.append(j)
    return kept


def prune_rank_deficient(
    matrix: np.ndarray,
    tolerance: float = RANK_TOLERANCE,
) -> List[int]:
    """Indices of columns to keep so the matrix has full column rank.

    Greedy Gram-Schmidt sweep: a column is kept when its residual, after
    projecting out the span of previously kept columns, retains at least
    ``tolerance`` of its norm.  Each column is projected against the whole
    kept basis at once, twice: one pass of classical Gram-Schmidt loses
    orthogonality on nearly dependent columns, and a second restores it.
    """
    matrix = np.asarray(matrix, dtype=float)
    n, p = matrix.shape
    kept: List[int] = []
    basis = np.empty((p, n))  # orthonormal kept directions, one per row
    for j in range(p):
        v = matrix[:, j].copy()
        norm0 = np.linalg.norm(v)
        if norm0 < 1e-300:
            continue
        q = basis[: len(kept)]
        for _ in range(2):
            v -= q.T @ (q @ v)
        norm = np.linalg.norm(v)
        if norm > tolerance * norm0:
            basis[len(kept)] = v / norm
            kept.append(j)
    return kept


def prune_design(
    matrix: np.ndarray,
    column_names: Sequence[str],
    correlation_threshold: float = CORRELATION_THRESHOLD,
) -> Tuple[np.ndarray, List[str], List[int]]:
    """Full collinearity pipeline: correlation screen, then rank repair.

    The rank sweep runs on ``[1 | X]`` with the intercept first, so it is
    always kept and any column in the span of the intercept and the
    columns before it is dropped: ``[1 | pruned]`` has full column rank.

    Returns the pruned matrix, the surviving column names, and the kept
    column indices (into the original matrix).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[1] != len(column_names):
        raise ValueError("column_names length must match matrix width")
    keep1 = prune_correlated(matrix, correlation_threshold)
    augmented = np.column_stack([np.ones(len(matrix)), matrix[:, keep1]])
    kept = [keep1[j - 1] for j in prune_rank_deficient(augmented) if j]
    return matrix[:, kept], [column_names[j] for j in kept], kept


def variance_inflation_factors(matrix: np.ndarray) -> np.ndarray:
    """VIF_j = 1 / (1 - R^2_j) of column j regressed on the others.

    Values above ~10 conventionally flag problematic collinearity.
    Constant columns get VIF = inf.
    """
    matrix = np.asarray(matrix, dtype=float)
    n, p = matrix.shape
    vifs = np.empty(p)
    for j in range(p):
        target = matrix[:, j]
        others = np.delete(matrix, j, axis=1)
        others = np.column_stack([np.ones(n), others])
        coef, *_ = np.linalg.lstsq(others, target, rcond=None)
        residual = target - others @ coef
        ss_tot = float(((target - target.mean()) ** 2).sum())
        if ss_tot < 1e-30:
            vifs[j] = np.inf
            continue
        r2 = 1.0 - float((residual**2).sum()) / ss_tot
        vifs[j] = np.inf if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return vifs
