"""The inferred hardware-software performance model.

:class:`InferredModel` bundles everything needed to go from a
:class:`ModelSpec` and training profiles to predictions on new profiles:

    spec --fit--> design matrix --collinearity pruning--> weighted OLS

Collinearity elimination is integrated into fitting because redundant
software variables routinely appear only once the design is constructed
(§3.1); the pruning decisions are recorded and replayed at prediction time.

Fitting evaluates the builder's design with its
:class:`~repro.core.design.DesignProgram` over every column; on its first
prediction a model compiles a second program over only the columns it
kept, the one evaluator behind :meth:`~InferredModel.predict`,
:meth:`~InferredModel.predict_rows`, :meth:`~InferredModel.predict_one` and
:meth:`~InferredModel.prepared_design`.
"""

from __future__ import annotations

import math

from typing import Dict, List, Optional

import numpy as np

from repro.core.collinearity import prune_design
from repro.core.dataset import ProfileDataset
from repro.core.design import DesignMatrixBuilder, DesignProgram, ModelSpec
from repro.core.metrics import median_error, pearson_correlation
from repro.core.regression import LinearFit, fit_ols
from repro.core.transforms import TABLE3_ROW_ORDER, TRANSFORM_LABELS

#: Response-scale transforms.  Performance responses (CPI, Mflop/s, power)
#: are strictly positive with multiplicative structure, so regression on a
#: log scale stabilizes residual variance — the response-side counterpart
#: of the predictor transforms in §3.1 (and standard practice in the
#: regression-modeling work the paper builds on, Lee & Brooks [26]).
RESPONSE_TRANSFORMS = {
    "identity": (lambda z: z, lambda z: z),
    "log": (np.log, np.exp),
}

#: Clamp on log-scale linear predictors before exponentiation: guards
#: ``exp`` against absurd extrapolations from degenerate candidate specs,
#: which the genetic search scores poorly anyway.
LOG_PREDICTION_CLIP = 50.0


def _stable_exp(z: np.ndarray) -> np.ndarray:
    """Batch-size-invariant exp.

    ``np.exp`` dispatches to SIMD kernels whose lanes round differently
    from the scalar fallback used for remainder elements, so the same value
    can produce last-ulp-different results depending on its position and
    the array length.  The serving layer guarantees micro-batched
    predictions are bit-identical to single-row calls, so the response
    inverse must be computed per element.  math.exp costs ~0.17 µs/element:
    about 45 µs, 10-13% of a 256-row ``predict_rows`` call on a 37-term
    model (measured on a 2-core x86 host with AVX-512).
    """
    return np.array([math.exp(v) for v in z], dtype=float)


class InferredModel:
    """A fitted performance model ``z = F(x, y) + eps``.

    Use :meth:`fit` (classmethod) to construct; thereafter :meth:`predict`
    maps datasets with the same variables to performance predictions.
    """

    def __init__(
        self,
        spec: ModelSpec,
        builder: DesignMatrixBuilder,
        kept_columns: List[int],
        fit: LinearFit,
        response: str = "log",
    ):
        self.spec = spec
        self._builder = builder
        self._kept_columns = kept_columns
        self._fit = fit
        self.response = response
        #: The :class:`DesignProgram`, compiled on the first prediction.
        self._program: Optional[DesignProgram] = None

    # -- construction -------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        spec: ModelSpec,
        dataset: ProfileDataset,
        weights: Optional[np.ndarray] = None,
        response: str = "log",
        auto_stabilize: bool = True,
    ) -> "InferredModel":
        """Fit ``spec`` to ``dataset`` (optionally weighted).

        ``response`` selects the response-scale transform (see
        :data:`RESPONSE_TRANSFORMS`); the default log scale suits strictly
        positive performance metrics.  ``auto_stabilize`` toggles the
        predictor-side power-ladder transform of §3.1 (exposed mainly for
        the ablation studies).
        """
        if response not in RESPONSE_TRANSFORMS:
            raise ValueError(
                f"response must be one of {sorted(RESPONSE_TRANSFORMS)}, got {response!r}"
            )
        forward, _ = RESPONSE_TRANSFORMS[response]
        targets = dataset.targets()
        if response == "log" and (targets <= 0).any():
            raise ValueError(f"{response} response requires positive targets")

        builder = DesignMatrixBuilder(spec, auto_stabilize=auto_stabilize)
        design = builder.fit_transform(dataset)
        if design.shape[1] == 0:
            # Intercept-only model: legal, just weak.  Keeps the genetic
            # search total — a degenerate chromosome scores poorly rather
            # than crashing a generation.
            pruned, names, kept = design, [], []
        else:
            pruned, names, kept = prune_design(design, builder.column_names)
        linear_fit = fit_ols(pruned, forward(targets), names, weights)
        return cls(spec, builder, kept, linear_fit, response)

    # -- prediction ----------------------------------------------------------------

    def predict(self, dataset: ProfileDataset) -> np.ndarray:
        """Predicted performance for every record in ``dataset``."""
        return self._predict_design(self._design(self._rows(dataset)))

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """Predicted performance for a raw ``(n, n_variables)`` feature array.

        Columns must be ordered like :attr:`variable_names` (software
        variables first, then hardware).  Bit-identical to :meth:`predict`
        on a dataset holding the same rows, but skips
        :class:`ProfileDataset` and :class:`ProfileRecord` construction —
        this is the serving hot path.  Row ``i`` of a batch is
        bit-identical to row ``i`` predicted alone, whatever the batch
        size.
        """
        matrix = np.asarray(rows, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        return self._predict_design(self._design(matrix))

    def predict_one(self, x: np.ndarray, y: np.ndarray) -> float:
        """Predict a single (x, y) point."""
        names = self.variable_names
        if len(x) + len(y) != len(names):
            raise ValueError(
                f"expected {len(names)} values total, got {len(x)} + {len(y)}"
            )
        row = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
        if not np.isfinite(row).all():
            raise ValueError("non-finite profile for query")
        return float(self.predict_rows(row[None, :])[0])

    def _rows(self, dataset: ProfileDataset) -> np.ndarray:
        if dataset.variable_names != self.variable_names:
            raise ValueError("dataset variables differ from the fitted ones")
        return dataset.matrix()

    def _design(self, matrix: np.ndarray) -> np.ndarray:
        program = self._program
        if program is None:
            program = self._program = DesignProgram(self._builder, self._kept_columns)
        return program(matrix)

    def _predict_design(self, design: np.ndarray) -> np.ndarray:
        linear = self._fit.predict(design)
        if self.response == "log":
            return _stable_exp(linear.clip(-LOG_PREDICTION_CLIP, LOG_PREDICTION_CLIP))
        _, inverse = RESPONSE_TRANSFORMS[self.response]
        return inverse(linear)

    # -- streaming support ---------------------------------------------------------

    def prepared_design(self, dataset: ProfileDataset) -> np.ndarray:
        """The pruned design rows this model's fit actually consumes.

        Applies the fit-time transform state *and* the recorded
        collinearity-pruning decisions, so the returned block lines up
        column-for-column with :attr:`fit_column_names`.  This is the
        row-reduction entry point of the streaming accumulator
        (:class:`repro.stream.GramAccumulator`): folding these rows
        through :func:`repro.core.regression.accumulate_gram` yields
        normal-equation blocks additive with any other rows prepared by
        the same model.  The block is column-major, the layout the pruned
        column selection has always had: BLAS reduces the Gram product in
        an order that follows the layout, so this keeps accumulated blocks
        (and checkpointed accumulators) bit-identical across versions.
        """
        return np.asfortranarray(self._design(self._rows(dataset)))

    def transform_targets(self, targets: np.ndarray) -> np.ndarray:
        """Targets on the fit's response scale (the regression's ``y``)."""
        targets = np.asarray(targets, dtype=float)
        if self.response == "log" and (targets <= 0).any():
            raise ValueError(f"{self.response} response requires positive targets")
        forward, _ = RESPONSE_TRANSFORMS[self.response]
        return forward(targets)

    def refit_from(self, fit: LinearFit) -> "InferredModel":
        """A new model sharing this one's spec/transform state, new coefficients.

        The streaming coefficient-refresh path: a :func:`solve_gram` over
        accumulated blocks produces a :class:`LinearFit` whose columns must
        match :attr:`fit_column_names`; everything else (spec, fitted
        transforms, pruning, response scale) is structural and carries over
        unchanged.
        """
        if fit.column_names != self.fit_column_names:
            raise ValueError(
                "refit columns do not match this model's design: "
                f"{fit.column_names} != {self.fit_column_names}"
            )
        refit = InferredModel(
            self.spec, self._builder, self._kept_columns, fit, self.response
        )
        refit._program = self._program  # same design: compiled at most once
        return refit

    @property
    def fit_column_names(self) -> tuple:
        """Design column names (post pruning) the linear fit is over."""
        return self._fit.column_names

    # -- evaluation ----------------------------------------------------------------

    def score(self, dataset: ProfileDataset) -> Dict[str, float]:
        """Median error and correlation on a validation dataset."""
        predictions = self.predict(dataset)
        targets = dataset.targets()
        return {
            "median_error": median_error(predictions, targets),
            "correlation": pearson_correlation(predictions, targets),
        }

    # -- introspection -----------------------------------------------------------------

    @property
    def variable_names(self) -> tuple:
        """Fit-time variable order (software first, then hardware) —
        the column order :meth:`predict_rows` expects."""
        return self._builder.variable_names

    @property
    def coefficients(self) -> Dict[str, float]:
        return self._fit.named_coefficients()

    @property
    def intercept(self) -> float:
        return self._fit.intercept

    @property
    def n_terms(self) -> int:
        return len(self._fit.coefficients)

    def transform_summary(self) -> Dict[str, List[str]]:
        """Variables grouped by transformation — the paper's Table 3 view."""
        groups: Dict[str, List[str]] = {label: [] for label in TABLE3_ROW_ORDER}
        for name, kind in self.spec.transforms.items():
            groups[TRANSFORM_LABELS[kind]].append(name)
        return groups

    def __repr__(self) -> str:
        return (
            f"InferredModel({len(self.spec.included_variables)} variables, "
            f"{len(self.spec.interactions)} interactions, {self.n_terms} terms)"
        )
