"""Drift detection over a prequential error stream.

The incumbent model is scored on every incoming batch *before* that batch
is folded into the training state (test-then-train, a.k.a. prequential
evaluation) — an honest held-out error signal with no separate holdout
split, in the spirit of Stevens & Klöckner's black-box held-out gating
(PAPERS.md).  :class:`DriftDetector` maintains a sliding window of those
per-record errors and compares the window median against the error the
incumbent specification achieved when it was last (re-)specified.

Hysteresis keeps noise from thrashing the GA:

* the window must hold at least ``min_fill`` errors before any verdict;
* the ratio must exceed ``trip_ratio`` on ``patience`` *consecutive*
  checks — with ``patience`` > 1, one bad batch never trips;
* after a trip the detector latches until :meth:`DriftDetector.reset`
  (the re-specification) re-arms it, and re-arming additionally requires
  the score to fall back under ``clear_ratio`` so a still-degraded model
  does not immediately re-trip on residual window contents.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterable

import numpy as np

from repro import obs


@dataclasses.dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs for :class:`DriftDetector`.

    The defaults are the paper's §3.3 update policy, the gate every built
    service runs: no verdict before 10 fresh profiles ("10-20 additional
    data points are sufficient"), a window of twice that, and a
    re-specification as soon as the windowed median error exceeds 1.5x the
    error measured at the last (re-)specification.  ``trip_ratio`` is in
    units of that baseline error.
    """

    window: int = 20          # sliding window length, in records
    min_fill: int = 10        # verdicts need at least this many errors
    trip_ratio: float = 1.5   # windowed error / baseline that signals drift
    clear_ratio: float = 1.5  # must fall below this to re-arm after reset
    patience: int = 1         # consecutive over-threshold checks to trip

    def __post_init__(self):
        if self.window < 1 or not 1 <= self.min_fill <= self.window:
            raise ValueError("need 1 <= min_fill <= window")
        if not 1.0 <= self.clear_ratio <= self.trip_ratio:
            raise ValueError("need 1.0 <= clear_ratio <= trip_ratio")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


class DriftDetector:
    """Sliding-window prequential drift gate with hysteresis.

    ``baseline`` is the incumbent model's error at its last
    (re-)specification, in the same units as the errors passed to
    :meth:`observe` (we use absolute relative error throughout, matching
    :func:`repro.core.metrics.median_error`).
    """

    def __init__(self, baseline: float, config: DriftConfig = DriftConfig()):
        if baseline <= 0:
            raise ValueError("baseline error must be positive")
        self.config = config
        self.baseline = baseline
        self._window: deque = deque(maxlen=config.window)
        self._streak = 0
        self._armed = True
        self.tripped = False

    # -- signal ---------------------------------------------------------------------

    def observe(self, errors: Iterable[float]) -> bool:
        """Fold one batch of per-record errors in; return :attr:`tripped`.

        A single :meth:`observe` call is one "check" for patience
        purposes, however many records it carries — so patience counts
        consecutive degraded *batches*, not records.
        """
        batch = [float(e) for e in errors]
        self._window.extend(batch)
        score = self.score()
        obs.gauge("stream.drift_score").set(score)
        obs.gauge("stream.window_error").set(self._window_error())
        if len(self._window) < self.config.min_fill:
            return self.tripped
        if not self._armed:
            # Re-arm only once the model demonstrably recovered; otherwise
            # stale window contents would trip again right after a respec.
            if score < self.config.clear_ratio:
                self._armed = True
                self._streak = 0
            return self.tripped
        if self.tripped:
            return True
        if score > self.config.trip_ratio:
            self._streak += 1
            if self._streak >= self.config.patience:
                self.tripped = True
                obs.counter("stream.drift_trips").inc()
        else:
            self._streak = 0
        return self.tripped

    def score(self) -> float:
        """Windowed median error as a multiple of the baseline."""
        if not self._window:
            return 0.0
        return self._window_error() / self.baseline

    def _window_error(self) -> float:
        if not self._window:
            return 0.0
        return float(np.median(np.asarray(self._window)))

    # -- lifecycle ------------------------------------------------------------------

    def reset(self, baseline: float) -> None:
        """Acknowledge a re-specification: new baseline, cleared window.

        The detector stays disarmed until the post-respec score drops
        under ``clear_ratio`` (see :meth:`observe`), so the first few
        batches after a respec cannot immediately re-trip it.
        """
        if baseline <= 0:
            raise ValueError("baseline error must be positive")
        self.baseline = baseline
        self._window.clear()
        self._streak = 0
        self.tripped = False
        self._armed = False

    @property
    def fill(self) -> int:
        return len(self._window)
