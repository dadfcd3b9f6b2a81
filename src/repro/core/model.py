"""The inferred hardware-software performance model.

:class:`InferredModel` bundles everything needed to go from a
:class:`ModelSpec` and training profiles to predictions on new profiles:

    spec --fit--> design matrix --collinearity pruning--> weighted OLS

Collinearity elimination is integrated into fitting because redundant
software variables routinely appear only once the design is constructed
(§3.1); the pruning decisions are recorded and replayed at prediction time.

Prediction does not replay the builder variable by variable: on its first
prediction a model lowers its fitted design into a :class:`DesignProgram`
of flat index arrays, the one evaluator behind :meth:`~InferredModel.predict`,
:meth:`~InferredModel.predict_rows`, :meth:`~InferredModel.predict_one` and
:meth:`~InferredModel.prepared_design`.  Fitting keeps
:meth:`DesignMatrixBuilder.transform_matrix`, which is also the oracle the
program is tested against bit for bit.
"""

from __future__ import annotations

import itertools
import math

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.collinearity import prune_design
from repro.core.dataset import ProfileDataset
from repro.core.design import DesignMatrixBuilder, ModelSpec
from repro.core.metrics import median_error, pearson_correlation
from repro.core.regression import LinearFit, fit_ols
from repro.core.transforms import FittedTransform, TransformKind

#: Response-scale transforms.  Performance responses (CPI, Mflop/s, power)
#: are strictly positive with multiplicative structure, so regression on a
#: log scale stabilizes residual variance — the response-side counterpart
#: of the predictor transforms in §3.1 (and standard practice in the
#: regression-modeling work the paper builds on, Lee & Brooks [26]).
RESPONSE_TRANSFORMS = {
    "identity": (lambda z: z, lambda z: z),
    "log": (np.log, np.exp),
    "sqrt": (np.sqrt, lambda z: z**2),
}


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


class DesignProgram:
    """A fitted design lowered to flat index arrays, for prediction.

    :meth:`DesignMatrixBuilder.transform_matrix` walks the spec one
    variable and one interaction at a time, a few numpy calls each.  The
    program does the same arithmetic one column group at a time, in about
    twenty numpy calls whatever the spec's size:

    1. gather the source column of every stabilized view (each main
       effect's transform and each interaction operand's linear view);
    2. stabilize: views are sorted by ladder power and each power group is
       raised with the one scalar exponent ``1 / power`` that
       :func:`~repro.core.transforms.stabilize` uses, so numpy takes the
       same loops (``** 0.5`` is a square root, for one);
    3. standardize and clip with per-view center, scale and bound vectors;
    4. gather the kept columns' views by basis and apply it in place:
       ``max(z - knot, floor) ** 3`` over cubes and knot columns, and
       products over squares and interactions;
    5. one gather into :attr:`InferredModel.fit_column_names` order.

    Every element meets the same ufuncs with the same operands as in
    ``transform_matrix``, so the design is bitwise equal to
    ``transform_matrix(rows)[:, kept_columns]``, and it is C-contiguous,
    so :meth:`LinearFit.predict` reduces it in the same order.
    """

    def __init__(self, builder: DesignMatrixBuilder, kept_columns: Sequence[int]):
        source = {name: i for i, name in enumerate(builder.variable_names)}
        self._width = len(source)
        views: Dict[tuple, int] = {}

        def view(name: str, fitted: FittedTransform) -> int:
            key = (fitted.power, source[name], fitted.center, fitted.scale,
                   fitted.low, fitted.high)
            return views.setdefault(key, len(views))

        # One (basis, view, operand) term per builder column, in order.
        terms = []
        for name, fitted in builder._fitted.items():
            if fitted.kind == TransformKind.EXCLUDED:
                continue
            index = view(name, fitted)
            degree = 3 if fitted.kind == TransformKind.SPLINE else int(fitted.kind)
            terms.extend((d, index, None) for d in range(1, degree + 1))
            if fitted.kind == TransformKind.SPLINE:
                terms.extend(("knot", index, float(k)) for k in fitted.knots)
        for a, b in sorted(builder.spec.interactions):
            terms.append(("pair", view(a, builder._linear_views[a]),
                          view(b, builder._linear_views[b])))

        # Renumber the views so that each ladder power is one column range,
        # the identity (power 1) first.
        order = sorted(views, key=lambda key: key[:2])
        slot = {views[key]: i for i, key in enumerate(order)}
        self._source = np.array([key[1] for key in order], dtype=np.intp)
        # Per-column operands are (1, k) rows: for a single-row batch the
        # shapes then match and numpy skips its broadcasting set-up.
        self._center, self._scale, self._low, self._high = (
            np.array([[key[i] for key in order]], dtype=float) for i in range(2, 6)
        )
        powers = [key[0] for key in order]
        self._roots_from = powers.count(1)
        self._roots = []
        start = 0
        for power, group in itertools.groupby(powers[self._roots_from:]):
            stop = start + len(list(group))
            self._roots.append((slice(start, stop), 1.0 / power))
            start = stop

        # The kept columns, gathered from z by basis: [degree 1 | cubes and
        # knots | products | their second operands].  A cube is a knot
        # column at knot 0.0 whose floor is -inf (``max(z - 0.0, -inf)`` is
        # z), and a square is the product of a view with itself (numpy's
        # ``z ** 2`` is ``z * z``), so two ufunc chains cover all four
        # bases.
        parts = {basis: [] for basis in (1, 2, 3, "knot", "pair")}
        for position, j in enumerate(kept_columns):
            basis, index, operand = terms[j]
            if basis == 2:
                basis, operand = "pair", index
            parts[basis].append((position, slot[index], operand))
        cubes = parts[3] + parts["knot"]
        products = parts["pair"]
        placed = parts[1] + cubes + products
        self._columns = np.array(
            [v for _, v, _ in placed] + [slot[b] for _, _, b in products],
            dtype=np.intp,
        )
        edges = np.cumsum([len(parts[1]), len(cubes), len(products)])
        self._cubes = slice(edges[0], edges[1])
        self._products = slice(edges[1], edges[2])
        self._operands = slice(edges[2], None)
        self._knotted = bool(parts["knot"])
        self._shift = np.array(
            [[0.0] * len(parts[3]) + [k for _, _, k in parts["knot"]]], dtype=float
        )
        self._floor = np.array(
            [[-np.inf] * len(parts[3]) + [0.0] * len(parts["knot"])], dtype=float
        )
        self._gather = np.empty(len(placed), dtype=np.intp)
        for i, (position, _, _) in enumerate(placed):
            self._gather[position] = i

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        """The kept design columns of a float ``(n, n_variables)`` array."""
        if matrix.ndim != 2 or matrix.shape[1] != self._width:
            raise ValueError(
                f"feature matrix must be (n, {self._width}), got {matrix.shape}"
            )
        if not len(self._gather):
            return np.empty((matrix.shape[0], 0))
        # In-place updates of fresh arrays: the same ufuncs, operands and
        # order as the oracle, without the temporaries.
        z = matrix.take(self._source, axis=1)
        if self._roots:
            tail = z[:, self._roots_from:]
            sign, root = np.sign(tail), np.abs(tail)
            for group, exponent in self._roots:
                view = root[:, group]
                view **= exponent
            np.multiply(sign, root, out=tail)
        z -= self._center
        z /= self._scale
        z.clip(self._low, self._high, out=z)
        t = z.take(self._columns, axis=1)
        if self._cubes.start < self._cubes.stop:
            view = t[:, self._cubes]
            if self._knotted:
                view -= self._shift
                np.maximum(view, self._floor, out=view)
            view **= 3
        if self._products.start < self._products.stop:
            view = t[:, self._products]
            view *= t[:, self._operands]
        return t.take(self._gather, axis=1)


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
        if response in ("log", "sqrt") and (targets <= 0).any():
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
            # Guard exp() against absurd extrapolations from degenerate
            # candidate specs; the genetic search scores them poorly anyway.
            return _stable_exp(linear.clip(-50.0, 50.0))
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
        if self.response in ("log", "sqrt") and (targets <= 0).any():
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
        groups: Dict[str, List[str]] = {
            "un-used": [],
            "linear": [],
            "poly, degree 2": [],
            "poly, degree 3": [],
            "spline, 3 knots": [],
        }
        labels = {
            TransformKind.EXCLUDED: "un-used",
            TransformKind.LINEAR: "linear",
            TransformKind.QUADRATIC: "poly, degree 2",
            TransformKind.CUBIC: "poly, degree 3",
            TransformKind.SPLINE: "spline, 3 knots",
        }
        for name, kind in self.spec.transforms.items():
            groups[labels[kind]].append(name)
        return groups

    def __repr__(self) -> str:
        return (
            f"InferredModel({len(self.spec.included_variables)} variables, "
            f"{len(self.spec.interactions)} interactions, {self.n_terms} terms)"
        )
