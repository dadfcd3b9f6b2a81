"""Active configuration selection by committee disagreement.

Which configurations should be simulated/profiled *next*?  Random
sampling (the paper's §3.3 growth loop) wastes simulator budget on
regions every plausible model already agrees on.  Following Ghaffari et
al.'s multi-model active learning (PAPERS.md), we instead keep a small
committee of fitted models — the top distinct chromosomes of the last GA
population, each fit on the full dataset — and score every candidate
configuration by the committee's *prediction disagreement*:

    score(row) = std(predictions) / max(|mean(predictions)|, eps)

High disagreement marks the configurations the current evidence least
constrains; profiling those shrinks model variance fastest per simulated
observation.  The coefficient of variation (rather than raw std) keeps
the score comparable across performance regimes — a 10% spread matters
equally at 2 CPI and at 200 Mflop/s.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro import obs
from repro.core.dataset import ProfileDataset
from repro.core.model import InferredModel

#: Guard against division by ~zero mean predictions.
_EPS = 1e-12

#: Committee members: the top distinct chromosomes of the last population.
COMMITTEE_SIZE = 5


class ActiveSampler:
    """Scores candidate configuration rows by committee disagreement."""

    def __init__(self, committee: Sequence[InferredModel]):
        if len(committee) < 2:
            raise ValueError("committee needs at least 2 models to disagree")
        self.committee = list(committee)

    @classmethod
    def from_search(cls, result, dataset: ProfileDataset) -> "ActiveSampler":
        """Build the committee from a GA :class:`SearchResult`.

        Takes the top :data:`COMMITTEE_SIZE` *distinct* chromosomes of the
        final ranked population and fits each on the full dataset.
        Degenerate specs that fail to fit are skipped; the population
        always yields >= 2 fits in practice (the GA keeps elites sane).
        """
        models: List[InferredModel] = []
        seen = set()
        for chromosome, _ in result.ranked():
            if chromosome in seen:
                continue
            seen.add(chromosome)
            spec = chromosome.to_spec(dataset.variable_names)
            try:
                models.append(InferredModel.fit(spec, dataset))
            except (ValueError, np.linalg.LinAlgError):
                continue
            if len(models) == COMMITTEE_SIZE:
                break
        return cls(models)

    def scores(self, rows: np.ndarray) -> np.ndarray:
        """Disagreement score per candidate row (higher = more informative)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        predictions = np.stack(
            [model.predict_rows(rows) for model in self.committee]
        )
        mean = predictions.mean(axis=0)
        std = predictions.std(axis=0)
        return std / np.maximum(np.abs(mean), _EPS)

    def select(self, rows: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` most-disagreed-on rows, best first.

        Stable (mergesort) ordering, so ties resolve by candidate index
        and selection is deterministic.
        """
        scores = self.scores(rows)
        order = np.argsort(-scores, kind="stable")[: max(k, 0)]
        obs.counter("stream.active_selections").inc(len(order))
        if len(scores):
            obs.gauge("stream.disagreement_max").set(float(scores.max()))
        return order
