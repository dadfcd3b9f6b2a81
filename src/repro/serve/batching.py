"""Micro-batching: coalesce concurrent single-profile predictions.

One prediction is a compiled design program plus a dot product — a fixed
couple of dozen numpy calls, cheaper than the per-request overhead of
parsing, scheduling, and replying.  The :class:`MicroBatcher` amortizes that fixed
cost by draining concurrently queued requests into one vectorized
``InferredModel.predict_rows`` call per *tick*:

* a tick opens when the first request arrives and gathers while the
  event loop keeps adding requests: it closes as soon as one pass of the
  loop adds none, or when ``max_batch`` requests are queued, or
  ``max_latency_s`` after it opened, whichever comes first.  A lone
  request is predicted at once instead of waiting out a window; requests
  that arrive while a tick predicts are read after it and form the next
  tick, so ticks still fill under load;
* the whole batch is predicted against **one** model snapshot, so every
  response in a tick is served by a single (model, version) pair — the
  invariant the live-update swap protocol relies on;
* the queue is bounded: submissions beyond ``queue_depth`` fail fast with
  :class:`QueueFullError` (surfaced as HTTP-style 429 by the server) rather
  than building unbounded latency;
* per-request timeouts cancel the waiter, not the batch;
* two histograms split the server-side latency of a ``predict``:
  ``serve.queue_wait_seconds`` (submit to the flush of its tick, per
  request) and ``serve.batch_predict_seconds`` (the one ``predict_rows``
  call of each tick).

Because ``predict_rows`` ends in a batch-size-invariant reduction (see
``LinearFit.predict``), a batched response is bit-identical to the
sequential ``predict_one`` call for the same row, for *any* interleaving of
arrivals — property-tested in ``tests/test_serve_batching.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro import faults, obs


class QueueFullError(RuntimeError):
    """The prediction queue is at capacity; shed load (429)."""


class RequestTimeout(RuntimeError):
    """A queued request waited longer than its timeout."""


# Let fault plans speak the server's failure vocabulary:
# ``serve.dispatch=raise:queue_full`` makes the server answer 429,
# ``raise:request_timeout`` answers 408 — without touching a real queue.
faults.register_exception(
    "queue_full", lambda site: QueueFullError(f"injected queue-full at {site!r}")
)
faults.register_exception(
    "request_timeout", lambda site: RequestTimeout(f"injected timeout at {site!r}")
)


@dataclasses.dataclass(frozen=True)
class BatchConfig:
    """Tuning knobs of the batching tick."""

    max_batch: int = 64          #: flush as soon as this many are queued
    max_latency_s: float = 0.002  #: ... or this long after the first arrival,
    #: if the event loop kept adding requests until then
    queue_depth: int = 1024      #: bound on queued-but-unflushed requests
    request_timeout_s: float = 10.0  #: per-request wait budget

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_latency_s < 0:
            raise ValueError("max_latency_s must be >= 0")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")


@dataclasses.dataclass
class BatchStats:
    """Occupancy accounting for the benchmark report."""

    ticks: int = 0
    requests: int = 0
    rejected: int = 0
    timed_out: int = 0
    #: batch-size -> number of ticks that flushed exactly that many rows
    occupancy: Dict[int, int] = dataclasses.field(default_factory=dict)

    def record_flush(self, size: int) -> None:
        self.ticks += 1
        self.requests += size
        self.occupancy[size] = self.occupancy.get(size, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        mean = self.requests / self.ticks if self.ticks else 0.0
        return {
            "ticks": self.ticks,
            "requests": self.requests,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "mean_occupancy": round(mean, 3),
            "occupancy_histogram": {
                str(size): count for size, count in sorted(self.occupancy.items())
            },
        }


class ModelSlot:
    """Atomic holder of the live ``(version, model)`` snapshot.

    The pair is swapped by rebinding one attribute, which is atomic under
    the GIL; readers grab the tuple once and never see a torn
    version/model combination.
    """

    def __init__(self, model=None, version: int = 0):
        self._snapshot: Optional[Tuple[int, object]] = (
            None if model is None else (version, model)
        )

    def get(self) -> Tuple[int, object]:
        snapshot = self._snapshot
        if snapshot is None:
            raise RuntimeError("no model published to the serving slot yet")
        return snapshot

    def swap(self, version: int, model) -> None:
        current = self._snapshot
        if current is not None and version <= current[0]:
            raise ValueError(
                f"model versions must increase: live={current[0]}, new={version}"
            )
        self._snapshot = (version, model)

    @property
    def version(self) -> int:
        return self.get()[0]


class MicroBatcher:
    """Coalesces awaitable single-row predictions into vectorized calls."""

    def __init__(self, slot: ModelSlot, config: Optional[BatchConfig] = None):
        self.slot = slot
        self.config = config or BatchConfig()
        self.stats = BatchStats()
        #: (row, waiter, submit time on the perf_counter clock)
        self._queue: Deque[Tuple[np.ndarray, asyncio.Future, float]] = deque()
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        self._obs_occupancy = obs.histogram(
            "serve.batch_occupancy", obs.SIZE_BUCKETS
        )
        self._obs_queue_depth = obs.gauge("serve.queue_depth")
        self._obs_ticks = obs.counter("serve.batch_ticks")
        self._obs_rejected = obs.counter("serve.queue_rejected")
        self._obs_timed_out = obs.counter("serve.request_timeouts")
        self._obs_queue_wait = obs.histogram(
            "serve.queue_wait_seconds", obs.SECONDS_BUCKETS
        )
        self._obs_predict = obs.histogram(
            "serve.batch_predict_seconds", obs.SECONDS_BUCKETS
        )

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        self._closed = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        for _, future, _ in self._queue:
            if not future.done():
                future.set_exception(RuntimeError("batcher closed"))
        self._queue.clear()

    # -- submission ----------------------------------------------------------------

    async def submit(self, row: np.ndarray) -> Tuple[float, int]:
        """Queue one feature row; returns ``(prediction, model_version)``.

        Raises :class:`QueueFullError` when the queue is at capacity and
        :class:`RequestTimeout` when the configured wait budget elapses.
        """
        if self._closed:
            raise RuntimeError("batcher closed")
        if len(self._queue) >= self.config.queue_depth:
            self.stats.rejected += 1
            self._obs_rejected.inc()
            raise QueueFullError(
                f"prediction queue at capacity ({self.config.queue_depth})"
            )
        future = asyncio.get_running_loop().create_future()
        self._queue.append(
            (np.asarray(row, dtype=float), future, time.perf_counter())
        )
        self._obs_queue_depth.set(len(self._queue))
        self._wakeup.set()
        try:
            return await asyncio.wait_for(future, self.config.request_timeout_s)
        except asyncio.TimeoutError:
            self.stats.timed_out += 1
            self._obs_timed_out.inc()
            raise RequestTimeout(
                f"prediction not served within {self.config.request_timeout_s}s"
            ) from None

    # -- the tick ------------------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            while not self._queue and not self._closed:
                self._wakeup.clear()
                await self._wakeup.wait()
            if self._closed:
                return
            # A tick: the first arrival opens it; keep gathering while a
            # pass of the event loop adds requests, up to the batch and
            # latency caps.
            deadline = loop.time() + self.config.max_latency_s
            while (
                len(self._queue) < self.config.max_batch
                and loop.time() < deadline
                and not self._closed
            ):
                queued = len(self._queue)
                await asyncio.sleep(0)
                if len(self._queue) == queued:
                    break
            self._flush()

    def _flush(self) -> None:
        take = min(len(self._queue), self.config.max_batch)
        if take == 0:
            return
        batch = [self._queue.popleft() for _ in range(take)]
        self._obs_queue_depth.set(len(self._queue))
        # Drop requests whose waiter already gave up (timeout/cancel); they
        # must not occupy batch rows.
        live = [(row, fut, t) for row, fut, t in batch if not fut.done()]
        if not live:
            return
        start = time.perf_counter()
        for _, _, submitted in live:
            self._obs_queue_wait.observe(start - submitted)
        version, model = self.slot.get()
        rows = np.vstack([row for row, _, _ in live])
        try:
            predictions = model.predict_rows(rows)
        except Exception as exc:  # surface per-request, keep the loop alive
            for _, future, _ in live:
                if not future.done():
                    future.set_exception(
                        RuntimeError(f"prediction failed: {exc}")
                    )
            return
        self._obs_predict.observe(time.perf_counter() - start)
        self.stats.record_flush(len(live))
        self._obs_ticks.inc()
        self._obs_occupancy.observe(len(live))
        for (_, future, _), prediction in zip(live, predictions):
            if not future.done():
                future.set_result((float(prediction), version))
