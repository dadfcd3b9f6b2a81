"""Model specifications and design-matrix construction (§3.1).

A :class:`ModelSpec` is the declarative description a chromosome decodes
to: a transform kind per variable plus a set of pairwise interactions.
A :class:`DesignMatrixBuilder` *fits* the spec to training data — choosing
stabilization powers and spline knots — and then deterministically maps any
dataset with the same variables to a numeric design matrix.

Interactions follow the paper's product-term formulation
(``z = ... + b3 * xi * xj``): the product of the two variables'
stabilized-linear views.

A :class:`DesignProgram` is the one evaluator of basis columns: a
builder's fitted state lowered to flat index arrays.
:meth:`DesignMatrixBuilder.transform_matrix` runs the builder's program
over all of its columns (the fit path), a fitted
:class:`~repro.core.model.InferredModel` compiles one over the columns it
kept (the predict path), and the fitness engine selects every candidate's
main effects from one builder's basis
(:meth:`DesignMatrixBuilder.columns_of`).  The per-variable walk it
replaces is the oracle of the tests.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import ProfileDataset
from repro.core.transforms import FittedTransform, TransformKind, fit_transform

Interaction = Tuple[str, str]


def normalize_interaction(a: str, b: str) -> Interaction:
    """Canonical (sorted) form of an interaction pair."""
    if a == b:
        raise ValueError(f"an interaction needs two distinct variables, got {a!r} twice")
    return (a, b) if a < b else (b, a)


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Variables, transformations, and interactions of one candidate model."""

    transforms: Dict[str, TransformKind]
    interactions: FrozenSet[Interaction] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "transforms", dict(self.transforms))
        pairs = {normalize_interaction(*pair) for pair in self.interactions}
        for a, b in pairs:
            for name in (a, b):
                if name not in self.transforms:
                    raise ValueError(f"interaction references unknown variable {name!r}")
        object.__setattr__(self, "interactions", frozenset(pairs))

    @property
    def included_variables(self) -> Tuple[str, ...]:
        return tuple(
            name
            for name, kind in self.transforms.items()
            if kind != TransformKind.EXCLUDED
        )

    def describe(self) -> str:
        """Human-readable one-spec-per-line description."""
        lines = []
        for name, kind in self.transforms.items():
            if kind != TransformKind.EXCLUDED:
                lines.append(f"{name}: {kind.name.lower()}")
        for a, b in sorted(self.interactions):
            lines.append(f"{a} * {b}")
        return "\n".join(lines)

    def complexity(self) -> int:
        """Rough column count: polynomial degrees + spline width + interactions."""
        total = 0
        for kind in self.transforms.values():
            if kind == TransformKind.SPLINE:
                total += 6
            else:
                total += int(kind)
        return total + len(self.interactions)


class DesignMatrixBuilder:
    """Fits a :class:`ModelSpec` to data and produces design matrices.

    Interaction terms use each variable's stabilized-linear view even when
    the variable's own main-effect transform is richer (or the variable is
    excluded as a main effect) — the chromosome treats main effects and
    interactions independently (§3.4).
    """

    def __init__(self, spec: ModelSpec, auto_stabilize: bool = True):
        self.spec = spec
        self.auto_stabilize = auto_stabilize
        self._fitted: Dict[str, FittedTransform] = {}
        self._linear_views: Dict[str, FittedTransform] = {}
        self._columns: List[str] = []
        self._variable_names: Tuple[str, ...] = ()
        self._is_fitted = False
        #: The :class:`DesignProgram` over every column, compiled on first use.
        self._program: Optional[DesignProgram] = None

    @property
    def is_fitted(self) -> bool:
        return self._is_fitted

    @property
    def column_names(self) -> Tuple[str, ...]:
        self._require_fitted()
        return tuple(self._columns)

    @property
    def variable_names(self) -> Tuple[str, ...]:
        """Variable names (software then hardware) seen at fit time."""
        self._require_fitted()
        return self._variable_names

    def fit(self, dataset: ProfileDataset) -> "DesignMatrixBuilder":
        """Estimate transform state (powers, knots) from training data."""
        if len(dataset) == 0:
            raise ValueError("cannot fit a design on an empty dataset")
        self._variable_names = dataset.variable_names
        matrix = dataset.matrix()
        name_to_col = {name: i for i, name in enumerate(self._variable_names)}

        for name in self.spec.transforms:
            if name not in name_to_col:
                raise ValueError(f"spec references unknown variable {name!r}")

        self._fitted = {
            name: fit_transform(matrix[:, name_to_col[name]], kind, self.auto_stabilize)
            for name, kind in self.spec.transforms.items()
        }
        interacting = {v for pair in self.spec.interactions for v in pair}
        self._linear_views = {
            name: fit_transform(
                matrix[:, name_to_col[name]], TransformKind.LINEAR, self.auto_stabilize
            )
            for name in interacting
        }
        self._program = None
        self._is_fitted = True
        self._columns = self.columns_of(self.spec)
        return self

    def columns_of(self, spec: ModelSpec) -> List[str]:
        """Names of ``spec``'s design columns, in design order.

        For this builder's own spec these are :attr:`column_names`.  For
        another spec over the same variables whose every variable is
        fitted here as a spline (or as a polynomial of at least its
        degree), each main-effect name is a column of this design, and it
        equals that column of ``DesignMatrixBuilder(spec)`` fitted on the
        same data: a variable's power, center, scale, clip range and knots
        do not depend on its kind, so its linear, quadratic and cubic
        columns are the first one, two and three of its spline columns.
        An interaction ``a*b`` is the product of the columns named ``a``
        and ``b``, the two variables' linear views.
        """
        self._require_fitted()
        names = []
        for name, kind in spec.transforms.items():
            fitted = self._fitted.get(name)
            if fitted is None:
                raise ValueError(f"spec references unknown variable {name!r}")
            if kind > fitted.kind:
                raise ValueError(f"{name!r} is fitted as {fitted.kind.name}, not {kind.name}")
            suffixes = fitted.column_suffixes()
            if kind != TransformKind.SPLINE:
                suffixes = suffixes[: int(kind)]
            names.extend(f"{name}{suffix}" for suffix in suffixes)
        names.extend(f"{a}*{b}" for a, b in sorted(spec.interactions))
        return names

    def transform(self, dataset: ProfileDataset) -> np.ndarray:
        """Design matrix for ``dataset`` using the fitted state."""
        self._require_fitted()
        if dataset.variable_names != self._variable_names:
            raise ValueError("dataset variables differ from the fitted ones")
        return self.transform_matrix(dataset.matrix())

    def transform_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Design matrix for a raw ``(n, n_variables)`` feature array.

        Columns must be ordered like :attr:`variable_names` (software
        variables first, then hardware).  Runs the builder's
        :class:`DesignProgram` over every column, compiled on the first
        call; the result is C-contiguous.
        """
        self._require_fitted()
        program = self._program
        if program is None:
            program = self._program = DesignProgram(self, range(len(self._columns)))
        return program(np.asarray(matrix, dtype=float))

    def fit_transform(self, dataset: ProfileDataset) -> np.ndarray:
        return self.fit(dataset).transform(dataset)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("builder is not fitted; call fit() first")


class DesignProgram:
    """A fitted design lowered to flat index arrays.

    The per-variable walk — each main effect's basis, then each
    interaction's product, a few numpy calls apiece — is how the builder's
    design is defined.  The program does the same arithmetic one column
    group at a time, in about twenty numpy calls whatever the spec's size:

    1. gather the source column of every stabilized view (each main
       effect's transform and each interaction operand's linear view);
    2. stabilize: views are sorted by ladder power and each power group is
       raised with the one scalar exponent ``1 / power`` that
       :func:`~repro.core.transforms.stabilize` uses, so numpy takes the
       same loops (``** 0.5`` is a square root, for one);
    3. standardize and clip with per-view center, scale and bound vectors;
    4. gather the selected columns' views by basis and apply it in place:
       ``max(z - knot, floor) ** 3`` over cubes and knot columns, and
       products over squares and interactions;
    5. one gather into the order of ``columns`` (positions in the
       builder's :attr:`~DesignMatrixBuilder.column_names`).

    Every element meets the same ufuncs with the same operands as in the
    walk, so the design is bitwise equal to the walk's design restricted to
    ``columns`` (``tests/design_oracle.py`` keeps the walk as the oracle),
    and it is C-contiguous, so :meth:`LinearFit.predict` reduces it in the
    same order.
    """

    def __init__(self, builder: DesignMatrixBuilder, columns: Sequence[int]):
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

        # The selected columns, gathered from z by basis: [degree 1 | cubes and
        # knots | products | their second operands].  A cube is a knot
        # column at knot 0.0 whose floor is -inf (``max(z - 0.0, -inf)`` is
        # z), and a square is the product of a view with itself (numpy's
        # ``z ** 2`` is ``z * z``), so two ufunc chains cover all four
        # bases.
        parts = {basis: [] for basis in (1, 2, 3, "knot", "pair")}
        for position, j in enumerate(columns):
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
        """The selected design columns of a float ``(n, n_variables)`` array."""
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
