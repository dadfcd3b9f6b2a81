"""Continuous model maintenance: refresh cheaply, re-specify on drift.

:class:`StreamingRespecifier` is the control loop tying the subsystem
together.  Each ingested batch flows through four stages:

1. **prequential scoring** — the batch is predicted before being learned
   from, and per-record errors feed the
   :class:`~repro.stream.drift.DriftDetector`.  Scoring uses the frozen
   *reference* snapshot from the last re-specification, not the
   continuously-refreshed incumbent: an adaptive model absorbs drift into
   its own coefficients and hides exactly the signal the detector needs
   (the classic prequential-with-adaptive-model blind spot), while the
   reference answers the question that matters — has the distribution
   moved since the specification was last chosen?;
2. **accumulation** — the batch joins the dataset and its rank-k Gram
   contribution folds into the :class:`~repro.stream.accumulator.GramAccumulator`
   (periodically checkpointed through :mod:`repro.store`);
3. **coefficient refresh** — a p×p ``solve_gram`` rebinds the incumbent
   specification's coefficients to all evidence so far.  Orders of
   magnitude cheaper than a GA pass (``BENCH_stream.json``), so it runs
   on every batch that does not trip the detector;
4. **re-specification** — only when drift trips: the GA resumes
   *warm-started from the incumbent population*
   (:meth:`repro.core.genetic.GeneticSearch.update`), the winning spec is
   refit on the full dataset, and the accumulator/sampler/detector are
   rebuilt around the new structure.

The refresh/respec split is the paper's "dynamic spaces" claim made
online: structure changes are rare and expensive, coefficient updates
are constant and cheap.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro import faults, obs
from repro import store as store_mod
from repro.core.dataset import ProfileDataset, ProfileRecord
from repro.core.genetic import GeneticSearch, SearchResult
from repro.core.model import InferredModel
from repro.stream.accumulator import GramAccumulator
from repro.stream.drift import DriftConfig, DriftDetector
from repro.stream.sampler import ActiveSampler

#: Buckets for the staleness histogram (observations absorbed between
#: re-specifications — a count, not a duration).
STALENESS_BUCKETS = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


@dataclasses.dataclass(frozen=True)
class StreamOutcome:
    """What one :meth:`StreamingRespecifier.ingest` call did."""

    action: str               # "none" | "refresh" | "respec"
    records: int
    drift_score: float
    tripped: bool             # detector latched this call (or earlier)
    needs_respec: bool        # tripped but respec deferred (allow_respec=False)
    batch_error: float        # median prequential error of this batch

    @property
    def refreshed(self) -> bool:
        return self.action == "refresh"


class StreamingRespecifier:
    """Owns the incumbent model and keeps it current against a stream.

    Parameters
    ----------
    dataset:
        The growing profile dataset; ingested batches are appended.
    search:
        The genetic search whose retained population warm-starts
        re-specification.
    drift_config:
        Hysteresis policy for the drift gate; the default is the paper's
        §3.3 update policy.
    checkpoint_every:
        Checkpoint the accumulator every N batches (0 disables).
    store:
        Checkpoint destination; defaults to the ambient store when
        checkpointing is enabled.
    name:
        Namespaces checkpoints (``stream/<name>/ckpt/...``).
    """

    def __init__(
        self,
        dataset: ProfileDataset,
        search: Optional[GeneticSearch] = None,
        drift_config: DriftConfig = DriftConfig(),
        checkpoint_every: int = 0,
        store: Optional[store_mod.Store] = None,
        name: str = "default",
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.dataset = dataset
        self.search = search or GeneticSearch()
        self.drift_config = drift_config
        self.checkpoint_every = checkpoint_every
        self.store = store
        self.name = name

        self.model: Optional[InferredModel] = None
        self.reference: Optional[InferredModel] = None  # last respec'd snapshot
        #: Optional :class:`repro.stream.OnlineRetuner` (see its
        #: ``attach``): notified after every re-specification and
        #: coefficient refresh so the deployed (r, c, cache) can follow
        #: the re-specified model.  Re-tune failures never propagate —
        #: the retuner degrades to its last-good tuning internally.
        self.retuner = None
        self.accumulator: Optional[GramAccumulator] = None
        self.detector: Optional[DriftDetector] = None
        self._sampler: Optional[ActiveSampler] = None
        self._committee_rows: Optional[int] = None  # records at adoption
        self.last_result: Optional[SearchResult] = None
        self.batches_ingested = 0
        self.records_ingested = 0
        self._staleness = 0  # records since last re-specification
        self.refreshes = 0
        self.respecs = 0
        self._calibrated = False   # was set_baseline() ever used?
        self._recalibrate = False  # re-derive baseline from the next batch

    # -- lifecycle ------------------------------------------------------------------

    def bootstrap(self, generations: int = 10) -> InferredModel:
        """Initial GA specification search + streaming state."""
        result = self.search.run(self.dataset, generations)
        self._adopt(result)
        return self.model

    def bootstrap_from(self, result: SearchResult) -> InferredModel:
        """Adopt an already-completed GA result instead of re-searching.
        The result's population must live in :attr:`search` for respec
        warm-starts to work — pass the same search instance that ran it."""
        self._adopt(result)
        return self.model

    def _adopt(self, result: SearchResult) -> None:
        """Rebuild all per-specification state around a GA result.

        The checkpoint sequence number carries over from the previous
        accumulator: checkpoints of the new specification must outrank
        every pre-respec checkpoint, or pruning would keep the stale ones
        and recovery would prefer them.  The old specification's
        checkpoints are purged outright (they are spec-tagged, so
        recovery would skip them anyway — this just reclaims the space).
        """
        self.last_result = result
        self.model = result.best_model(self.dataset)
        self.reference = self.model
        previous = self.accumulator
        self.accumulator = GramAccumulator.from_model(
            self.model,
            self.dataset,
            name=self.name,
            seq=previous.seq if previous is not None else 0,
        )
        if (
            previous is not None
            and previous.spec_digest != self.accumulator.spec_digest
            and (self.store is not None or store_mod.enabled())
        ):
            self.accumulator.purge_other_specs(self.store)
        baseline = max(result.best_fitness.mean_error, 1e-6)
        if self.detector is None:
            self.detector = DriftDetector(baseline, self.drift_config)
        else:
            self.detector.reset(baseline)
        self._sampler = None
        self._committee_rows = len(self.dataset)

    @property
    def sampler(self) -> Optional[ActiveSampler]:
        """The active-sampling committee of the current specification.

        Fitting it costs several model fits, and only :meth:`select_next`
        reads it, so it is built on first use after each adoption — on
        the records present at adoption, exactly as an eager build would.
        ``None`` when the population is too degenerate for a committee.
        """
        if self._committee_rows is not None:
            rows, self._committee_rows = self._committee_rows, None
            try:
                self._sampler = ActiveSampler.from_search(
                    self.last_result, self.dataset.subset(range(rows))
                )
            except ValueError:
                self._sampler = None  # sampling falls back
        return self._sampler

    @sampler.setter
    def sampler(self, sampler: Optional[ActiveSampler]) -> None:
        self._sampler = sampler
        self._committee_rows = None

    def set_baseline(self, baseline: float) -> None:
        """Override the drift baseline (e.g. from a fresh stationary batch).

        GA fitness is a mean of per-application medians over each
        application's validation rows, not the windowed median the
        detector computes; calibrating against an actual prequential batch
        puts both in the same units.  It does not narrow the sampling
        spread of a short window's median (DESIGN.md §11.2).
        Once calibrated, every re-specification re-derives the baseline
        from its first post-respec batch (same units, new model).
        """
        self.detector = DriftDetector(max(baseline, 1e-6), self.drift_config)
        self._calibrated = True
        self._recalibrate = False

    # -- streaming ------------------------------------------------------------------

    def ingest(
        self, batch: ProfileDataset, allow_respec: bool = True
    ) -> StreamOutcome:
        """Fold one observation batch in; maybe refresh or re-specify."""
        if self.model is None:
            raise RuntimeError("bootstrap() before ingesting")
        if len(batch) == 0:
            return StreamOutcome("none", 0, self.detector.score(), False, False, 0.0)
        faults.site("stream.ingest")
        with obs.span("stream.ingest"):
            errors = self._prequential_errors(batch)
            if self._recalibrate:
                # First batch after a re-specification: its prequential
                # errors come from the *new* model, so its median is the
                # honest baseline — the GA's leave-one-app-out fitness
                # would leave the trip ratio in the wrong units.
                self.set_baseline(float(np.median(errors)))
                obs.counter("stream.baseline_recalibrations").inc()
            tripped = self.detector.observe(errors)
            self.dataset.extend(batch.records)
            self.accumulator.ingest(batch)
            self.batches_ingested += 1
            self.records_ingested += len(batch)
            self._staleness += len(batch)
            obs.counter("stream.observations").inc(len(batch))
            obs.gauge("stream.staleness_observations").set(self._staleness)
            obs.gauge("stream.drift_tripped").set(1.0 if tripped else 0.0)
            if self.checkpoint_every and self.batches_ingested % self.checkpoint_every == 0:
                self.checkpoint()

        batch_error = float(np.median(errors)) if len(errors) else 0.0
        score = self.detector.score()
        if tripped and allow_respec:
            self.respec()
            return StreamOutcome("respec", len(batch), score, True, False, batch_error)
        if tripped:
            return StreamOutcome("none", len(batch), score, True, True, batch_error)
        action = "refresh" if self.refresh() else "none"
        return StreamOutcome(action, len(batch), score, False, False, batch_error)

    def _prequential_errors(self, batch: ProfileDataset) -> np.ndarray:
        """Test-then-train: score the batch before learning from it.

        Scored by the :attr:`reference` snapshot (last re-specification),
        so per-batch coefficient refreshes cannot absorb — and thereby
        hide — a distribution shift from the detector.
        """
        scorer = self.reference if self.reference is not None else self.model
        predictions = scorer.predict(batch)
        targets = batch.targets()
        denom = np.maximum(np.abs(targets), 1e-12)
        return np.abs(predictions - targets) / denom

    # -- maintenance actions ----------------------------------------------------------

    def refresh(self) -> bool:
        """Cheap coefficient refresh from the accumulated Gram blocks."""
        with obs.span("stream.refresh"):
            refreshed = self.accumulator.refresh()
        if refreshed is None:
            return False
        self.model = refreshed
        self.accumulator.model = refreshed
        self.refreshes += 1
        obs.counter("stream.refreshes").inc()
        if self.retuner is not None:
            self.retuner.on_refresh(self)
        return True

    def respec(self, generations: int = 5) -> InferredModel:
        """Full re-specification: warm-started GA over the grown dataset."""
        faults.site("stream.respec")
        with obs.span("stream.respec"):
            result = self.search.update(self.dataset, generations)
            obs.histogram("stream.staleness", STALENESS_BUCKETS).observe(
                self._staleness
            )
            self._staleness = 0
            self._adopt(result)
            self.respecs += 1
            self._recalibrate = self._calibrated
            obs.counter("stream.respecs").inc()
        if self.retuner is not None:
            self.retuner.on_respec(self)
        return self.model

    # -- active sampling ---------------------------------------------------------------

    def select_next(self, candidate_rows: np.ndarray, k: int) -> np.ndarray:
        """Indices of the next ``k`` configurations worth profiling.

        Committee disagreement when a sampler exists; otherwise the first
        ``k`` candidates (callers shuffle if they want random fallback).
        """
        if self.sampler is None:
            return np.arange(min(k, len(candidate_rows)))
        return self.sampler.select(candidate_rows, k)

    # -- persistence ------------------------------------------------------------------

    def checkpoint(self) -> Optional[str]:
        """Persist the accumulator if a store is available."""
        if self.accumulator is None:
            return None
        if self.store is None and not store_mod.enabled():
            return None
        return self.accumulator.checkpoint(self.store)

    def recover(self) -> bool:
        """Restore accumulator state from the newest valid checkpoint."""
        if self.accumulator is None:
            return False
        return self.accumulator.recover(self.store)

    # -- introspection -----------------------------------------------------------------

    def stats_dict(self) -> dict:
        stats = {
            "batches_ingested": self.batches_ingested,
            "records_ingested": self.records_ingested,
            "refreshes": self.refreshes,
            "respecs": self.respecs,
            "staleness_observations": self._staleness,
            "drift_score": self.detector.score() if self.detector else 0.0,
            "drift_tripped": bool(self.detector.tripped) if self.detector else False,
            "dataset_size": len(self.dataset),
        }
        if self.retuner is not None:
            stats["retune"] = self.retuner.stats_dict()
        return stats


def records_from_rows(
    application: str,
    rows: np.ndarray,
    targets: np.ndarray,
    n_software: int,
) -> List[ProfileRecord]:
    """Convenience: raw feature rows -> profile records for one application."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    targets = np.asarray(targets, dtype=float)
    return [
        ProfileRecord(
            application, row[:n_software].copy(), row[n_software:].copy(), float(z)
        )
        for row, z in zip(rows, targets)
    ]
