"""Ordinary and weighted least squares (§2.3).

The basic regression ``z = b0 + b1 c1 + ... + bk ck + eps`` over design
columns c, solved by numpy's (SVD-backed) least squares.  Weighted fits
implement the paper's model-update step, which fits ``{P_-s, T_s} x w`` —
the new application's training profiles replicated/weighted by w (§3.3).

For the genetic search's leave-one-application-out inner loop and the
streaming coefficient refresh, the same weighted fit is also available in
**Gram (normal-equation) form**: :func:`accumulate_gram` reduces a design
block to ``(XᵀWX, XᵀWy)`` contributions that are *additive over rows*, so
per-application fits can be realized as cheap block updates of one shared
accumulation, and :func:`solve_gram` solves the resulting p×p system.

:func:`solve_gram` is the one normal-equations solver.  It solves by
Cholesky; when Cholesky fails (the Gram is singular) it returns the
minimum-norm solution from one symmetric eigendecomposition.  Callers keep
the Gram factorable by pruning the intercept-augmented design first
(:func:`repro.core.collinearity.prune_design`), so the minimum-norm branch
is the exception.  :func:`fit_ols` stays as the batch solver of
:class:`~repro.core.model.InferredModel` and as the oracle the property
tests compare the Gram path against.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs

#: Relative eigenvalue cutoff of :func:`solve_gram`'s minimum-norm branch:
#: eigenvalues at or below ``MIN_NORM_RCOND * max|λ|`` are treated as zero.
#: The same cutoff as ``numpy.linalg.pinv(hermitian=True)``.
MIN_NORM_RCOND = 1e-15


@dataclasses.dataclass
class LinearFit:
    """A fitted linear model over prepared design columns."""

    intercept: float
    coefficients: np.ndarray
    column_names: Tuple[str, ...]
    #: Solved by :func:`solve_gram`'s minimum-norm branch (singular Gram).
    min_norm: bool = False

    def predict(self, design: np.ndarray) -> np.ndarray:
        # C-contiguous + einsum instead of a bare `@`: BLAS gemv/gemm block
        # differently with the row count, and einsum's reduction order
        # follows memory layout, so either a stride change or a batch-size
        # change could perturb the last ulp.  The serving layer micro-batches
        # concurrent requests and guarantees batched responses are
        # bit-identical to sequential single-row calls, which requires a
        # batch-size- and layout-invariant reduction.
        design = np.ascontiguousarray(design, dtype=float)
        if design.ndim != 2 or design.shape[1] != len(self.coefficients):
            raise ValueError(
                f"design must be (n, {len(self.coefficients)}), got {design.shape}"
            )
        return self.intercept + np.einsum("ij,j->i", design, self.coefficients)

    def named_coefficients(self) -> dict:
        return dict(zip(self.column_names, self.coefficients.tolist()))


def fit_ols(
    design: np.ndarray,
    targets: np.ndarray,
    column_names: Optional[Sequence[str]] = None,
    weights: Optional[np.ndarray] = None,
) -> LinearFit:
    """Fit (optionally weighted) least squares with an intercept.

    Weighted fitting minimizes ``sum_i w_i (z_i - f(c_i))^2`` via the usual
    sqrt-weight row scaling.  Rank deficiency is tolerated (numpy lstsq
    returns the minimum-norm solution), but callers should prune collinear
    columns first for interpretable coefficients.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {design.shape}")
    n, p = design.shape
    if len(targets) != n:
        raise ValueError(f"{n} rows but {len(targets)} targets")
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    if column_names is None:
        column_names = tuple(f"c{j}" for j in range(p))
    if len(column_names) != p:
        raise ValueError("column_names length must match design width")

    augmented = np.column_stack([np.ones(n), design])
    rhs = targets
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if len(weights) != n:
            raise ValueError(f"{n} rows but {len(weights)} weights")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        root = np.sqrt(weights)
        augmented = augmented * root[:, None]
        rhs = targets * root

    solution, *_ = np.linalg.lstsq(augmented, rhs, rcond=None)
    return LinearFit(
        intercept=float(solution[0]),
        coefficients=solution[1:].copy(),
        column_names=tuple(column_names),
    )


def accumulate_gram(
    design: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normal-equation contributions ``(AᵀWA, AᵀWy)`` of a design block.

    ``A`` is the intercept-augmented design ``[1 | design]``; ``W`` the
    diagonal weight matrix (identity when ``weights`` is ``None``).  The
    returned pair is additive over disjoint row blocks: accumulating the
    whole dataset once and keeping per-application blocks lets a
    leave-one-application-out sweep realize each fit as
    ``G_total - G_val + (w - 1) * G_train`` instead of re-reducing all
    rows per application.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {design.shape}")
    n = design.shape[0]
    if len(targets) != n:
        raise ValueError(f"{n} rows but {len(targets)} targets")
    augmented = np.column_stack([np.ones(n), design])
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if len(weights) != n:
            raise ValueError(f"{n} rows but {len(weights)} weights")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        weighted = augmented * weights[:, None]
    else:
        weighted = augmented
    gram = weighted.T @ augmented
    moment = weighted.T @ targets
    # Symmetrize: floating-point accumulation order makes G asymmetric at
    # the ulp level, and the Cholesky solver assumes exact symmetry.
    return (gram + gram.T) * 0.5, moment


def solve_gram(
    gram: np.ndarray,
    moment: np.ndarray,
    column_names: Optional[Sequence[str]] = None,
) -> Optional[LinearFit]:
    """Solve normal equations ``G b = m`` from :func:`accumulate_gram`.

    A symmetric positive definite ``G`` is solved directly once Cholesky
    has factored it.  When Cholesky or the solve fails, the result is the
    minimum-norm solution ``G⁺ m`` — the ``X⁺ y`` of an SVD least-squares
    fit on the rows — and carries ``min_norm=True``.  Near-singular
    systems that Cholesky factors are solved as they are: a condition
    cutoff would truncate directions the fit needs.  Cholesky can also
    factor an exactly singular system that rounding left barely positive,
    so callers prune collinear columns (intercept included) first.
    Returns ``None`` only when the blocks are not finite.
    """
    gram = np.asarray(gram, dtype=float)
    moment = np.asarray(moment, dtype=float)
    p = gram.shape[0]
    if gram.shape != (p, p) or moment.shape != (p,):
        raise ValueError(
            f"gram must be square and match moment, got {gram.shape} / {moment.shape}"
        )
    if p == 0:
        raise ValueError("gram must include at least the intercept row")
    if column_names is None:
        column_names = tuple(f"c{j}" for j in range(p - 1))
    if len(column_names) != p - 1:
        raise ValueError("column_names length must match design width")
    if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
        return None
    try:
        np.linalg.cholesky(gram)
        solution = np.linalg.solve(gram, moment)
        min_norm = False
    except np.linalg.LinAlgError:
        obs.counter("regression.min_norm_solves").inc()
        values, vectors = np.linalg.eigh(gram)
        magnitude = np.abs(values)
        keep = magnitude > MIN_NORM_RCOND * magnitude.max()
        basis = vectors[:, keep]
        solution = basis @ ((basis.T @ moment) / values[keep])
        min_norm = True
    return LinearFit(
        intercept=float(solution[0]),
        coefficients=solution[1:].copy(),
        column_names=tuple(column_names),
        min_norm=min_norm,
    )


def r_squared(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Coefficient of determination of predictions against targets."""
    targets = np.asarray(targets, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    ss_res = float(((targets - predictions) ** 2).sum())
    ss_tot = float(((targets - targets.mean()) ** 2).sum())
    if ss_tot < 1e-30:
        return 1.0 if ss_res < 1e-30 else 0.0
    return 1.0 - ss_res / ss_tot
