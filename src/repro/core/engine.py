"""Batched fitness evaluation for the genetic search (§3.3's inner loop).

:func:`repro.core.fitness.evaluate_spec` — retained as the reference
oracle — pays three layers of redundant work for every candidate model in
a population:

1. **Transform refits.**  Every per-application fit re-estimates each
   variable's ladder power, standardization, and spline knots, although
   specs in a population share almost all of their ``(variable, kind)``
   columns.  The engine fits one builder per dataset, for the spec "every
   variable a spline", evaluates its
   :class:`~repro.core.design.DesignProgram` once, and assembles every
   spec's design from that basis (:meth:`FitnessEngine.design`): its main
   effects by column name, its interactions as products of two
   variables' first spline columns.
2. **Full least-squares per application.**  The leave-one-application-out
   sweep solves |apps| SVD-backed least-squares problems over nearly
   identical row sets.  :class:`FitnessEngine` accumulates the
   intercept-augmented Gram system ``(AᵀA, Aᵀy)`` once per spec, keeps
   per-application train/validation blocks, and realizes application s's
   weighted fit on ``{P_-s, T_s} × w`` as the block update
   ``G_total - G_val(s) + (w - 1) · G_train(s)`` followed by an O(p³)
   :func:`solve_gram`.  The design is pruned against the intercept once
   per spec, so the Gram system factors by Cholesky; a singular one (an
   application's held-out rows can remove the last rows that separate two
   columns) gets :func:`solve_gram`'s minimum-norm solution, which the
   engine counts as ``lstsq_fallbacks`` in :meth:`FitnessEngine.stats`.
3. **Re-scoring identical specs.**  Handled one level up:
   :class:`repro.core.genetic.GeneticSearch` memoizes engine results by
   chromosome, which is sound because the engine's splits are fixed per
   search (:func:`repro.core.fitness.derive_app_splits`).

The engine scores what :class:`repro.core.genetic.GeneticSearch` asks
for: the log response, :data:`DEFAULT_TRAINING_WEIGHT` and the default
train fraction of :func:`derive_app_splits`.

Equivalence guarantees (also documented in DESIGN.md): the engine solves
the *same* weighted least-squares problems as the oracle over the same
fixed splits, with two deliberate batching deviations — transform state
(powers, centering, knots) is estimated once on the full dataset instead
of per-application training unions, and collinearity pruning is decided
once on the full design instead of per application.  The Gram solve
matches :func:`fit_ols`'s predictions to ~1e-8 (property-tested, also on
designs with duplicate and intercept-aliased columns); the benchmark
suite additionally checks that a seeded search converges to the same best
specification on both paths.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.core.collinearity import prune_design
from repro.core.dataset import ProfileDataset
from repro.core.design import DesignMatrixBuilder, ModelSpec
from repro.core.fitness import (
    DEFAULT_TRAINING_WEIGHT,
    FAILED_FITNESS,
    FitnessResult,
    derive_app_splits,
)
from repro.core.metrics import median_error
from repro.core.model import LOG_PREDICTION_CLIP
from repro.core.regression import solve_gram

# Unused here; perfbench's tracer (perfbench/tracing.py) patches this name
# and fails when it is missing.
from repro.core.regression import fit_ols  # noqa: F401
from repro.core.transforms import TransformKind


class FitnessEngine:
    """Scores model specifications against one dataset with fixed splits.

    Construct once per (dataset, search); call :meth:`evaluate` per spec.
    The constructor derives the per-application splits from
    ``split_seed`` and precomputes the response vector; the first
    evaluation computes the dataset's basis, and each evaluation then
    costs one column selection, one collinearity prune, one Gram
    accumulation, and |apps| block-updated Cholesky solves.
    """

    def __init__(self, dataset: ProfileDataset, split_seed: int):
        self.dataset = dataset
        self.splits = derive_app_splits(dataset, split_seed)
        self.applications = dataset.applications
        targets = dataset.targets()
        self._targets = targets
        self._bad_targets = bool((targets <= 0).any())
        self._y = None if self._bad_targets else np.log(targets)
        self.specs_evaluated = 0
        self.gram_fits = 0
        # Fits solved by solve_gram's minimum-norm branch.  The key keeps
        # its historical name: perfbench's build signature reads it.
        self.lstsq_fallbacks = 0
        self.failed_fits = 0
        # One build per column computed (the basis, then each spec's
        # interaction products), one hit per basis column a spec takes.
        self.column_builds = 0
        self.column_hits = 0
        self._basis = None
        self._obs_specs = obs.counter("engine.specs_evaluated")
        self._obs_gram = obs.counter("engine.gram_fits")
        self._obs_failed = obs.counter("engine.failed_fits")
        self._obs_hits = obs.counter("engine.column_hits")
        self._obs_builds = obs.counter("engine.column_builds")

    # -- public API ---------------------------------------------------------------

    def evaluate(self, spec: ModelSpec) -> FitnessResult:
        """Fitness of one specification (same contract as ``evaluate_spec``)."""
        if not self.applications:
            raise ValueError("dataset has no applications")
        self.specs_evaluated += 1
        self._obs_specs.inc()
        prepared = self._prepare(spec)
        per_app = {
            app: self._score_application(app, *prepared)
            for app in self.applications
        }
        errors = np.array(list(per_app.values()))
        return FitnessResult(
            mean_error=float(errors.mean()),
            sum_error=float(errors.sum()),
            per_application=per_app,
        )

    def evaluate_many(self, specs: Sequence[ModelSpec]) -> List[FitnessResult]:
        return [self.evaluate(spec) for spec in specs]

    def design(self, spec: ModelSpec) -> Tuple[np.ndarray, List[str]]:
        """The spec's design matrix on this dataset and its column names.

        Bitwise equal, names and C layout included, to
        ``DesignMatrixBuilder(spec).fit_transform(dataset)``.  The
        dataset's basis is the design of the spec "every variable a
        spline"; a spec takes its main effects from it by name and
        multiplies its interactions out of the two variables' first
        columns, their linear views (see
        :meth:`DesignMatrixBuilder.columns_of`).  A basis of every pair's
        product too would be three times as wide at 26 variables, and the
        engine of a re-specification lives in the serving process.
        """
        if self._basis is None:
            builder = DesignMatrixBuilder(ModelSpec(
                dict.fromkeys(self.dataset.variable_names, TransformKind.SPLINE)
            ))
            basis = builder.fit_transform(self.dataset)
            position = {name: i for i, name in enumerate(builder.column_names)}
            self._basis = (builder, basis, position)
            self.column_builds += basis.shape[1]
            self._obs_builds.inc(basis.shape[1])
        builder, basis, position = self._basis
        names = builder.columns_of(spec)
        pairs = sorted(spec.interactions)
        split = len(names) - len(pairs)
        taken, first, second = (
            np.array([position[name] for name in group], dtype=np.intp)
            for group in (names[:split], [a for a, _ in pairs], [b for _, b in pairs])
        )
        design = np.empty((len(basis), len(names)))
        design[:, :split] = basis.take(taken, axis=1)
        np.multiply(basis.take(first, axis=1), basis.take(second, axis=1),
                    out=design[:, split:])
        self.column_hits += split
        self.column_builds += len(pairs)
        self._obs_hits.inc(split)
        self._obs_builds.inc(len(pairs))
        return design, names

    def stats(self) -> Dict[str, float]:
        """Counters for benchmarking and observability."""
        columns = self.column_hits + self.column_builds
        return {
            "specs_evaluated": self.specs_evaluated,
            "gram_fits": self.gram_fits,
            "lstsq_fallbacks": self.lstsq_fallbacks,
            "failed_fits": self.failed_fits,
            "column_hits": self.column_hits,
            "column_builds": self.column_builds,
            "column_hit_rate": self.column_hits / columns if columns else 0.0,
        }

    # -- internals -----------------------------------------------------------------

    def _prepare(self, spec: ModelSpec):
        """Per-spec shared state: pruned design, Gram total, per-app blocks."""
        if self._bad_targets:
            return (None,) * 5
        design, names = self.design(spec)
        if design.shape[1]:
            pruned, kept_names, _ = prune_design(design, names)
        else:
            pruned, kept_names = design, []
        augmented = np.column_stack([np.ones(len(design)), pruned])
        y = self._y
        blocks: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        p = augmented.shape[1]
        gram_total = np.zeros((p, p))
        moment_total = np.zeros(p)
        for app in self.applications:
            train_idx, val_idx = self.splits[app]
            a_train = augmented[train_idx]
            a_val = augmented[val_idx]
            g_train = a_train.T @ a_train
            g_val = a_val.T @ a_val
            m_train = a_train.T @ y[train_idx]
            m_val = a_val.T @ y[val_idx]
            blocks[app] = (g_train, g_val, m_train, m_val)
            gram_total += g_train + g_val
            moment_total += m_train + m_val
        gram_total = (gram_total + gram_total.T) * 0.5
        return augmented, kept_names, blocks, gram_total, moment_total

    def _score_application(
        self, app, augmented, kept_names, blocks, gram_total, moment_total
    ) -> float:
        if self._bad_targets:
            # The oracle's InferredModel.fit raises for non-positive
            # targets on the log response, failing every application.
            return FAILED_FITNESS
        train_idx, val_idx = self.splits[app]
        if len(train_idx) == 0 or len(val_idx) == 0:
            return FAILED_FITNESS
        g_train, g_val, m_train, m_val = blocks[app]
        extra = DEFAULT_TRAINING_WEIGHT - 1.0
        gram = gram_total - g_val + extra * g_train
        gram = (gram + gram.T) * 0.5
        moment = moment_total - m_val + extra * m_train
        fit = solve_gram(gram, moment, kept_names)
        if fit is None:
            self.failed_fits += 1
            self._obs_failed.inc()
            return FAILED_FITNESS
        if fit.min_norm:
            self.lstsq_fallbacks += 1
        else:
            self.gram_fits += 1
            self._obs_gram.inc()
        beta = np.concatenate([[fit.intercept], fit.coefficients])
        linear = augmented[val_idx] @ beta
        linear = np.clip(linear, -LOG_PREDICTION_CLIP, LOG_PREDICTION_CLIP)
        predictions = np.exp(linear)
        if not np.isfinite(predictions).all():
            return FAILED_FITNESS
        targets = self._targets[val_idx]
        return min(median_error(predictions, targets), FAILED_FITNESS)


def evaluate_chunk(
    dataset: ProfileDataset,
    split_seed: int,
    specs: Sequence[ModelSpec],
) -> Tuple[List[FitnessResult], Dict[str, float]]:
    """Score a chunk of specs with one shared engine (worker entry point).

    Top-level and fully determined by its arguments, so
    :mod:`repro.parallel` can ship whole population chunks to worker
    processes: each worker computes the dataset's basis once per chunk
    instead of once per candidate — and the supervised pool can resubmit a
    chunk whose worker died without changing any result.
    """
    faults.site("engine.evaluate_chunk")
    engine = FitnessEngine(dataset, split_seed)
    return engine.evaluate_many(specs), engine.stats()


class StoredDataset:
    """An engine-facing dataset view whose arrays live in the mmap store.

    Carries exactly what :class:`FitnessEngine` and
    :func:`repro.core.fitness.derive_app_splits` consume — variable names,
    the variables matrix, the target vector, and per-row application
    labels — with the two arrays memory-mapped from :mod:`repro.store`
    columns.  Shipping one to a pool worker via :mod:`repro.parallel`
    therefore crosses the boundary as tiny column references: every worker
    maps the same pages instead of unpickling its own copy of the dataset.
    """

    def __init__(self, variable_names, matrix, targets, labels):
        self.variable_names = tuple(variable_names)
        self._matrix = matrix
        self._targets = targets
        self._labels = tuple(str(label) for label in labels)

    def __len__(self) -> int:
        return len(self._targets)

    @property
    def applications(self) -> Tuple[str, ...]:
        """Application names in first-appearance order (as in
        :class:`~repro.core.dataset.ProfileDataset`)."""
        return tuple(dict.fromkeys(self._labels))

    def matrix(self) -> np.ndarray:
        return self._matrix

    def targets(self) -> np.ndarray:
        return self._targets

    def labels(self) -> np.ndarray:
        return np.asarray(self._labels)


def publish_dataset(dataset: ProfileDataset, store=None):
    """Publish a dataset's arrays to the column store for chunk shipping.

    Returns a :class:`StoredDataset` backed by mapped columns, or the
    dataset unchanged when the store is disabled or unwritable.  Columns
    are content-addressed, so republishing the same dataset is a no-op
    and concurrent searches share the same pages.  The returned view is
    evaluation-equivalent: the engine solves identical systems on it.
    """
    from repro import store as store_mod

    if store is None:
        if not store_mod.enabled():
            return dataset
        store = store_mod.Store()
    matrix = np.ascontiguousarray(dataset.matrix(), dtype=float)
    targets = np.ascontiguousarray(dataset.targets(), dtype=float)
    labels = [str(label) for label in dataset.labels()]
    digest = hashlib.sha256()
    digest.update(matrix.tobytes())
    digest.update(targets.tobytes())
    digest.update("|".join(labels).encode())
    digest.update("|".join(dataset.variable_names).encode())
    key = digest.hexdigest()[:24]
    try:
        store.put(f"datasets/{key}/matrix", matrix)
        store.put(f"datasets/{key}/targets", targets)
        mapped_matrix = store.get(f"datasets/{key}/matrix")
        mapped_targets = store.get(f"datasets/{key}/targets")
    except store_mod.StoreError:
        return dataset
    obs.counter("store.datasets_published").inc()
    return StoredDataset(
        dataset.variable_names, mapped_matrix, mapped_targets, labels
    )
