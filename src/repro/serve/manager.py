"""Live model maintenance: one respecifier behind the serving loop.

:class:`ServingManager` owns the feedback path of the service.  The
prediction path never touches it — predictions read the
:class:`~repro.serve.batching.ModelSlot` snapshot and nothing else — so a
re-specification in flight can never block or fail a prediction.

One :class:`repro.stream.StreamingRespecifier` maintains the model.  By
default (:func:`repro.serve.bootstrap.build_service`) its drift gate is
``DriftConfig()``, the paper's §3.3 update policy: once 10 fresh profiles
are in its window, re-specify as soon as their median error exceeds 1.5x
the steady-state error.

1. ``observe`` frames (``observe_stream`` is the same op) deliver profiles
   of a (possibly new) application.  Ingestion — prequential drift scoring
   against the last re-specified model, Gram accumulation, coefficient
   refresh — runs in a worker thread; the asyncio loop stays free to
   serve predictions.
2. A refresh publishes the refreshed coefficients (every
   ``publish_every``-th refresh; see :meth:`ServingManager.attach_stream`).
3. Once the drift gate trips, ONE background re-specification runs: the
   genetic heuristic resumes warm-started from its retained population
   (fanning out across processes via ``repro.parallel`` when
   ``REPRO_WORKERS`` is set) and the winner is refit.
4. Every new model — bootstrap, refresh, re-specification — takes
   :meth:`ServingManager.publish`: registry first (durable), then the slot
   (visible), then the ``on_swap`` hook (the fleet broadcast).  The swap
   is a single atomic snapshot rebind: every in-flight batch keeps the
   version it started with, every later batch sees the new one — zero
   dropped requests, old-or-new only.

**Failure policy**: a maintenance action that raises — ingest, re-spec,
publish — degrades gracefully to the last-good model.  The slot is only
rebound after a successful publish, so the live snapshot is untouched by
construction; the failure is recorded (``updates_failed`` /
``last_error`` in :meth:`ServingManager.stats_dict`, the
``serve.update_last_error`` gauge in obs) and swallowed rather than left to
die as an unobserved task exception.  Serving never stops because
learning stumbled.  The ``stream.ingest`` and ``stream.respec`` fault
sites inject such failures in ``tests/test_stream_chaos.py``.

Swap safety and version monotonicity are asserted by
``tests/test_serve_manager.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.core.dataset import ProfileDataset, ProfileRecord
from repro.serve.batching import ModelSlot
from repro.serve.registry import ModelKey, ModelRegistry


@dataclasses.dataclass
class UpdateStats:
    updates_started: int = 0  # background re-specifications scheduled
    updates_failed: int = 0  # ... that raised (last-good model kept)
    stream_failed: int = 0  # observe frames whose ingest raised
    last_published_version: int = 0
    last_error: Optional[str] = None


def _record_last_error(stats: UpdateStats, error: Optional[str]) -> None:
    """Track the last update error in stats AND the Prometheus export.

    The gauge makes failure state visible through ``metrics`` /
    ``serve --metrics-dump`` too (1 = last maintenance action failed),
    picking up ``{shard=...}`` labels for free under the sharded tier.
    """
    stats.last_error = error
    obs.gauge("serve.update_last_error").set(0.0 if error is None else 1.0)


class ServingManager:
    """Bridges ``observe`` traffic to a respecifier and the model slot.

    ``update_generations`` is the GA budget of each re-specification.
    """

    def __init__(
        self,
        stream,
        registry: ModelRegistry,
        key: ModelKey,
        slot: ModelSlot,
        backend: str = "cpu",
        update_generations: int = 5,
    ):
        self.registry = registry
        self.key = key
        self.slot = slot
        #: Timing backend this model's profiles came from; stamped into
        #: every registry publish and reported by ``stats``.
        self.backend = backend
        self.update_generations = update_generations
        self.stats = UpdateStats()
        # Export the health gauge from boot, not first failure: a scrape
        # that has never seen serve.update_last_error cannot alert on it.
        _record_last_error(self.stats, None)
        # One worker: ingests and re-specifications both mutate the
        # respecifier, so they serialize on this executor; the _lock
        # additionally keeps each ingest-then-publish step atomic.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-update"
        )
        self._lock = asyncio.Lock()
        self._update_task: Optional[asyncio.Task] = None
        #: Optional async hook ``on_swap(version)`` awaited after each
        #: successful publish-then-swap.  The shard supervisor registers
        #: its fleet-wide reload broadcast here; failures are counted
        #: (``serve.swap_hook_failures``), never allowed to fail the
        #: publish itself — the local slot already swapped.
        self.on_swap = None
        self.attach_stream(stream)

    def attach_stream(self, respecifier, publish_every: int = 1) -> None:
        """Install the respecifier that maintains the served model.

        Its incumbent model should be the one served (or an ancestor of
        it): refreshed and re-specified models are published and swapped
        into the slot.

        ``publish_every`` throttles how often coefficient *refreshes*
        reach the registry: every registry publish is a durable
        tmp/fsync/rename write plus a new version, so publishing each
        refresh puts a disk fsync on the hot ingest path and grows the
        registry without bound.  With ``publish_every=N`` only every Nth
        refresh is published (re-specifications always publish
        immediately); deployments ingesting at rate should set N > 1.
        """
        if respecifier.model is None:
            raise RuntimeError("bootstrap() the respecifier before attaching")
        if publish_every < 1:
            raise ValueError("publish_every must be >= 1")
        self.stream = respecifier
        self._publish_every = publish_every
        self._refreshes_since_publish = 0

    # -- publishing ----------------------------------------------------------------

    async def publish(self, trigger: str, model) -> int:
        """Durable publish, slot swap, stats, then the ``on_swap`` hook.

        The one publish path of the service: bootstrap, coefficient
        refresh, re-specification (and the fleet's manual rollout).  On
        the event loop, callers hold ``self._lock`` so a concurrent
        ingest cannot move the respecifier under them.  Durable first,
        visible second: a crash between the two leaves a valid registry
        entry and a stale-but-correct live model.
        """
        self._refreshes_since_publish = 0
        receipt = self.registry.publish(
            self.key,
            model,
            metadata={
                "trigger": trigger,
                "backend": self.backend,
                "n_records": len(self.stream.dataset),
            },
        )
        self.slot.swap(receipt.version, model)
        self.stats.last_published_version = receipt.version
        obs.gauge("serve.model_version").set(receipt.version)
        if self.on_swap is not None:
            try:
                await self.on_swap(receipt.version)
            except Exception:
                # Published and swapped locally; a failed fan-out is the
                # fleet layer's problem — it reconciles on respawn/reload.
                obs.counter("serve.swap_hook_failures").inc()
        return receipt.version

    # -- observe path --------------------------------------------------------------

    async def handle_observe(self, request: dict) -> dict:
        """Serve one ``observe`` frame: ingest, maybe refresh or re-specify.

        Coefficient refreshes happen inline (they are p×p solves); a
        tripped drift gate instead schedules ONE background
        re-specification, predictions staying on the incumbent snapshot
        for its whole duration.  Malformed profiles are rejected (400)
        before anything is ingested.
        """
        application = request["application"]
        batch = ProfileDataset(
            self.stream.dataset.x_names, self.stream.dataset.y_names
        )
        for p in request["profiles"]:
            batch.add(
                ProfileRecord(
                    application,
                    np.asarray(p["x"], dtype=float),
                    np.asarray(p["y"], dtype=float),
                    float(p["z"]),
                )
            )
        if len(batch) == 0:
            raise ValueError("observe needs at least one profile")

        loop = asyncio.get_running_loop()
        respec_scheduled = False
        async with self._lock:
            try:
                # Ingestion (prequential scoring + Gram fold + refresh
                # solve) is cheap and runs off-loop on the update executor.
                outcome = await loop.run_in_executor(
                    self._executor,
                    lambda: self.stream.ingest(batch, allow_respec=False),
                )
            except Exception as exc:
                # The slot keeps the last-good snapshot, the failure is
                # recorded, serving continues.  stream.ingest fault
                # injections land here.
                self.stats.stream_failed += 1
                _record_last_error(self.stats, f"{type(exc).__name__}: {exc}")
                obs.counter("serve.stream_failed").inc()
                return {"ok": False, "status": 500, "error": self.stats.last_error}
            obs.counter("serve.stream_batches").inc()
            if outcome.refreshed:
                self._refreshes_since_publish += 1
                if self._refreshes_since_publish >= self._publish_every:
                    await self.publish("stream-refresh", self.stream.model)
                else:
                    # Throttled: the refresh updated the in-memory
                    # incumbent; the durable publish rides along with a
                    # later refresh or re-spec.
                    obs.counter("serve.stream_publish_deferred").inc()
            if outcome.needs_respec and not self.update_in_progress:
                self._update_task = loop.create_task(self._respec())
                self.stats.updates_started += 1
                respec_scheduled = True

        return {
            "ok": True,
            "application": application,
            "action": outcome.action,
            "drift_score": outcome.drift_score,
            "drift_tripped": outcome.tripped,
            "batch_error": outcome.batch_error,
            "respec_scheduled": respec_scheduled,
            "model_version": self.slot.version,
        }

    # -- the background re-specification ------------------------------------------

    @property
    def update_in_progress(self) -> bool:
        return self._update_task is not None and not self._update_task.done()

    async def wait_for_update(self) -> None:
        """Block until any in-flight update settles (test/shutdown hook)."""
        if self._update_task is not None:
            await asyncio.shield(self._update_task)

    async def _respec(self) -> None:
        """Drift-triggered re-specification (GA warm-start), then publish.

        The GA — minutes of CPU at paper scale — runs lock-free (the
        single-worker executor already serializes it against ingests),
        but the publish takes ``self._lock``: it reads the respecifier,
        which a concurrent ``observe`` frame mutates on the executor
        while holding the lock.
        """
        loop = asyncio.get_running_loop()
        try:
            with obs.span("serve.stream_respec"):
                await loop.run_in_executor(
                    self._executor, self.stream.respec, self.update_generations
                )
            async with self._lock:
                await self.publish("stream-respec", self.stream.model)
                _record_last_error(self.stats, None)
            obs.counter("serve.stream_respecs").inc()
        except Exception as exc:
            # Publish-then-swap means a failed update never half-applies:
            # the slot still holds the last-good snapshot.  Record and
            # absorb; a raised exception would only die unobserved here.
            self.stats.updates_failed += 1
            _record_last_error(self.stats, f"{type(exc).__name__}: {exc}")
            obs.counter("serve.updates_failed").inc()

    # -- reporting -----------------------------------------------------------------

    def stats_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "updates_started": self.stats.updates_started,
            "updates_failed": self.stats.updates_failed,
            "update_in_progress": self.update_in_progress,
            "last_published_version": self.stats.last_published_version,
            "last_error": self.stats.last_error,
            "stream": {"failed": self.stats.stream_failed, **self.stream.stats_dict()},
        }

    def close(self) -> None:
        self._executor.shutdown(wait=False)
