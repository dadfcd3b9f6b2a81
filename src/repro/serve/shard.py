"""Sharded multi-process serving: N workers, one port, one model fleet.

A single :class:`~repro.serve.server.PredictionServer` is bounded by one
event loop on one core; the GIL caps it regardless of batcher tuning.
This module scales the same protocol across processes on one machine:

* a parent :class:`ShardSupervisor` forks ``n_shards`` worker processes;
* each worker runs its own event loop, micro-batcher, and a *read-only*
  :class:`~repro.serve.batching.ModelSlot` loaded from the shared
  on-disk :class:`~repro.serve.registry.ModelRegistry`;
* clients connect to ONE public ``host:port``: every worker accepts on
  that port directly with ``SO_REUSEPORT`` (Linux, BSDs) and the kernel
  load-balances connections.  A platform without it cannot run a fleet
  (:meth:`ShardSupervisor.start` says so).

**Model swaps are fleet-atomic in the versioned sense**: the supervisor
publishes to the registry first (durable), then broadcasts a ``reload``
op to every shard's private port.  Each :class:`ShardServer` reloads the
*exact* published version and swaps its slot only if the version is
newer (the slot enforces monotonicity), so during a rollout clients
observe at most two versions — ``{v, v+1}`` — and never an older one
resurfacing.  ``tests/test_serve_shard.py`` property-tests this.

**The feedback path stays centralized**: shards proxy ``observe`` frames
to the supervisor's control server (:class:`_ObserveProxy`), where the
single :class:`~repro.serve.manager.ServingManager` ingests, refreshes,
re-specifies, and publishes — and every publish, via its ``on_swap``
hook, fans the new version out to every shard.  One learner, N
predictors.

**Shards are cattle**: a monitor thread waits on process sentinels and
respawns any worker that dies (crash, injected ``shard.request=kill``,
or a client-sent ``shutdown`` op, which therefore only recycles one
shard).  A respawned worker loads the latest registry version, so it
rejoins already reconciled.  Fleet shutdown is :meth:`ShardSupervisor.drain`:
scrape per-shard metrics, stop every worker gracefully, flush the
per-shard + merged JSONL report, stop the control plane.

Fault sites: ``shard.request`` (every frame a shard dispatches — ``kill``
here is the chaos-suite shard-crash scenario), ``shard.worker.boot``
(worker startup, before the ready handshake).

Observability: each worker keeps its own process-wide ``repro.obs``
registry (reset post-fork so fork-inherited counts never double-report);
the supervisor scrapes per-shard snapshots and merges them in shard-id
order — the same deterministic in-order merge ``repro.parallel`` uses —
plus a ``prometheus_text_multi`` dump with per-shard ``shard="<i>"``
labels.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import faults, obs
from repro.obs import MetricsRegistry, prometheus_text_multi, write_jsonl
from repro.serve.batching import BatchConfig, ModelSlot
from repro.serve.bootstrap import build_service
from repro.serve.client import NO_RETRY, AsyncServeClient, ServeClient
from repro.serve.manager import ServingManager
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.server import PredictionServer
from repro.serve.testing import ServerThread


@functools.lru_cache(maxsize=None)
def supports_reuse_port() -> bool:
    """Can this platform actually share a listening port across sockets?

    ``hasattr(socket, "SO_REUSEPORT")`` is necessary but not sufficient
    (some kernels expose the constant and refuse the double bind), so
    probe with two real sockets once and cache the verdict.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    s1 = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s2 = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        s1.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        s1.bind(("127.0.0.1", 0))
        s2.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        s2.bind(("127.0.0.1", s1.getsockname()[1]))
        return True
    except OSError:
        return False
    finally:
        s1.close()
        s2.close()


def _reserve_reuse_port(host: str, port: int) -> Tuple[socket.socket, int]:
    """Bind (but never listen on) a SO_REUSEPORT socket to pin the port.

    The supervisor holds this socket for the fleet's lifetime: it fixes
    the port number before any worker exists (``port=0`` resolves here,
    once, so every worker binds the same number) and keeps the number
    reserved across the window where all shards are mid-respawn.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock, sock.getsockname()[1]


# -- the per-shard server ----------------------------------------------------------


class _ObserveProxy:
    """Stands in for the ServingManager inside a shard worker.

    Prediction never leaves the shard; *learning* must — the single
    ServingManager lives in the supervisor.  This proxy forwards each
    ``observe`` frame verbatim to the supervisor's control port and
    relays the reply, so clients can send observations to any shard.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.forwarded = 0
        self.failed = 0

    async def handle_observe(self, request: dict) -> dict:
        client = AsyncServeClient(self.host, self.port)
        try:
            await client.connect()
            reply = await client.request(request, check=False)
        except (OSError, EOFError, asyncio.IncompleteReadError) as exc:
            self.failed += 1
            obs.counter("shard.observe_forward_failures").inc()
            return {
                "ok": False,
                "status": 503,
                "error": f"control plane unreachable: {exc}",
            }
        finally:
            await client.close()
        self.forwarded += 1
        obs.counter("shard.observe_forwarded").inc()
        return reply

    def stats_dict(self) -> Dict[str, object]:
        return {
            "observe_forwarded": self.forwarded,
            "observe_forward_failures": self.failed,
            "control_port": self.port,
        }


class ShardServer(PredictionServer):
    """One worker's server: the base protocol plus fleet plumbing.

    Extends :class:`PredictionServer` with

    * a ``reload`` op (version-gated registry load + slot swap) — the
      receiving end of the supervisor's fleet-wide swap broadcast;
    * a *private* loopback listener, the reload/stats/drain channel that
      addresses this shard even though the public port is kernel-balanced;
    * the ``shard.request`` fault site ahead of every dispatch;
    * shard-labeled metrics and a ``shard`` field in ``stats``.
    """

    def __init__(
        self,
        slot: ModelSlot,
        shard_id: int,
        registry: ModelRegistry,
        key: ModelKey,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_config: Optional[BatchConfig] = None,
        manager=None,
        request_deadline_s: float = 30.0,
        backend: str = "cpu",
    ):
        super().__init__(
            slot,
            host=host,
            port=port,
            batch_config=batch_config,
            manager=manager,
            request_deadline_s=request_deadline_s,
            backend=backend,
        )
        self.shard_id = shard_id
        self.registry = registry
        self.key = key
        self.private_port = 0
        self._private_server: Optional[asyncio.base_events.Server] = None
        self._obs_reloads = obs.counter("shard.reloads_applied")
        self._ops["reload"] = self._op_reload

    async def start(self) -> None:
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, reuse_port=True
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # The private channel: loopback, kernel-assigned port, never
        # kernel-balanced — the supervisor can always address THIS shard.
        self._private_server = await asyncio.start_server(
            self._handle_connection, "127.0.0.1", 0
        )
        self.private_port = self._private_server.sockets[0].getsockname()[1]

    async def _shutdown(self) -> None:
        if self._private_server is not None:
            self._private_server.close()
            await self._private_server.wait_closed()
            self._private_server = None
        await super()._shutdown()

    async def _dispatch_op(self, request: dict) -> dict:
        # The shard-crash/hang chaos hook: kill exits this worker (the
        # supervisor respawns), delay wedges the request (the deadline
        # answers 408), drop tears the connection (clients retry).
        await faults.site_async("shard.request")
        return await super()._dispatch_op(request)

    def _op_reload(self, request: dict) -> dict:
        """Version-gated model reload from the shared registry.

        ``version`` pins the exact published version to load (the swap
        broadcast passes it so every shard lands on the same bytes);
        omitted, the latest valid version is resolved — the respawn and
        manual-reconcile path.  A version at or below the live one is a
        no-op: broadcasts are idempotent and re-deliveries/reorderings
        can never roll a shard back.
        """
        version = request.get("version")
        if version is None:
            version = self.registry.latest_version(self.key)
        version = int(version)
        current = self.slot.version
        if version <= current:
            return {
                "ok": True,
                "op": "reload",
                "shard": self.shard_id,
                "model_version": current,
                "reloaded": False,
            }
        model, loaded = self.registry.load(self.key, version)
        self.slot.swap(loaded, model)
        self._obs_reloads.inc()
        obs.gauge("serve.model_version").set(loaded)
        return {
            "ok": True,
            "op": "reload",
            "shard": self.shard_id,
            "model_version": loaded,
            "reloaded": True,
        }

    def _op_stats(self) -> dict:
        payload = super()._op_stats()
        payload["shard"] = self.shard_id
        payload["private_port"] = self.private_port
        return payload

    def _op_metrics(self, request: dict) -> dict:
        if request.get("format") == "prometheus":
            text = obs.prometheus_dump(
                labels={"shard": str(self.shard_id), "backend": self.backend}
            )
            return {"ok": True, "format": "prometheus", "text": text}
        return {
            "ok": True,
            "format": "snapshot",
            "shard": self.shard_id,
            "metrics": obs.snapshot(),
        }


# -- the worker process ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs, in fork-safe primitives."""

    shard_id: int
    registry_root: str
    space: str
    application: str
    host: str
    #: public port to bind with SO_REUSEPORT
    public_port: int
    control_port: int
    batch_config: Optional[BatchConfig]
    request_deadline_s: float
    backend: str = "cpu"


def _shard_worker_main(spec: _WorkerSpec, ready_conn) -> None:
    """Worker process entry: build the shard server, run its loop."""
    # The fork copied the parent's metrics registry; start from zero so
    # per-shard snapshots report only this shard's activity and the
    # supervisor's in-order merge never double-counts parent history.
    obs.reset()
    # Ctrl-C belongs to the supervisor (it drains the fleet); workers
    # stop via SIGTERM or a shutdown/drain op on the private port.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faults.site("shard.worker.boot")

    # recover=False: read-only opens must not sweep a live publisher's
    # in-flight .tmp-* files into quarantine.
    registry = ModelRegistry(spec.registry_root, recover=False)
    key = ModelKey(spec.space, spec.application)
    model, version = registry.load(key)
    slot = ModelSlot(model, version)
    server = ShardServer(
        slot,
        spec.shard_id,
        registry,
        key,
        host=spec.host,
        port=spec.public_port,
        batch_config=spec.batch_config,
        manager=_ObserveProxy("127.0.0.1", spec.control_port),
        request_deadline_s=spec.request_deadline_s,
        backend=spec.backend,
    )
    obs.gauge("serve.model_version").set(version)
    obs.gauge("shard.id").set(spec.shard_id)

    async def main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signal.SIGTERM, server.stop)
        ready_conn.send(
            {
                "shard": spec.shard_id,
                "pid": os.getpid(),
                "private_port": server.private_port,
                "model_version": version,
            }
        )
        ready_conn.close()
        await server.serve_forever()

    try:
        asyncio.run(main())
    except BaseException as exc:
        # Startup failures (bind error, injected boot fault) must reach
        # the parent; if the ready message already went out this send
        # hits a closed pipe and is ignored.
        with contextlib.suppress(OSError, ValueError):
            ready_conn.send({"shard": spec.shard_id, "error": repr(exc)})
        raise


# -- the supervisor ----------------------------------------------------------------


@dataclasses.dataclass
class _WorkerHandle:
    shard_id: int
    process: multiprocessing.Process
    private_port: int
    spawned_unix: float


class ShardSupervisor:
    """Owns the fleet: spawn, swap, monitor, respawn, drain.

    The supervisor process hosts the single :class:`ServingManager` (the
    learner) on a loopback *control server*; shards proxy ``observe``
    frames to it, and its ``on_swap`` hook broadcasts every successful
    publish to the fleet.  :meth:`publish_model` is the manual
    equivalent for operators/tests.
    """

    def __init__(
        self,
        serving: ServingManager,
        registry_root: Union[str, Path],
        n_shards: int,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_config: Optional[BatchConfig] = None,
        request_deadline_s: float = 30.0,
        max_respawns: int = 16,
        respawn_backoff_s: float = 0.05,
        spawn_timeout_s: float = 60.0,
        control_server: Optional[PredictionServer] = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.serving = serving
        self.registry = serving.registry
        self.key = serving.key
        # The fleet serves what the learner trained on: one backend tag,
        # propagated from the ServingManager into every worker.
        self.backend = getattr(serving, "backend", "cpu")
        self.registry_root = str(registry_root)
        self.n_shards = n_shards
        self.host = host
        self.port = port
        self.batch_config = batch_config
        self.request_deadline_s = request_deadline_s
        self.max_respawns = max_respawns
        self.respawn_backoff_s = respawn_backoff_s
        self.spawn_timeout_s = spawn_timeout_s
        #: The accept strategy, reported by :meth:`fleet_stats`.
        self.mode = "reuse_port"
        self.control_port = 0
        self.respawns = 0

        self._control_server = control_server or PredictionServer(
            serving.slot,
            host="127.0.0.1",
            port=0,
            manager=serving,
            backend=self.backend,
        )
        self._control_thread: Optional[ServerThread] = None
        self._reserved_sock: Optional[socket.socket] = None
        self._handles: Dict[int, _WorkerHandle] = {}
        self._handles_lock = threading.Lock()
        self._monitor_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        if not supports_reuse_port():
            raise RuntimeError(
                "sharded serving needs SO_REUSEPORT, which this platform "
                "does not support; serve with one shard instead"
            )
        # Control plane first: workers forward observes here from boot.
        self._control_thread = ServerThread(self._control_server).start()
        self.control_port = self._control_server.port
        self.serving.on_swap = self._broadcast_reload

        # Pin the public port before any worker exists so every shard
        # binds the same (resolved) number.
        self._reserved_sock, self.port = _reserve_reuse_port(self.host, self.port)

        try:
            for shard_id in range(self.n_shards):
                self._spawn(shard_id)
        except BaseException:
            self.drain()
            raise

        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-shard-monitor", daemon=True
        )
        self._monitor_thread.start()
        obs.gauge("shard.fleet_size").set(self.n_shards)
        return self

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()

    def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful fleet shutdown (idempotent).

        Order matters: stop respawning, then stop the workers (shutdown op first, SIGTERM for stragglers),
        the control plane, and the learner's executor.  Callers that want
        the fleet's final metrics run :meth:`flush_metrics` *before* this
        — a stopped shard cannot be scraped.
        """
        self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None

        with self._handles_lock:
            handles = sorted(self._handles.values(), key=lambda h: h.shard_id)
        deadline = time.monotonic() + timeout_s
        for handle in handles:
            try:
                with ServeClient(
                    "127.0.0.1", handle.private_port, timeout=5.0, retry=NO_RETRY
                ) as client:
                    client.shutdown()
            except Exception:
                pass  # already dead or wedged; terminate below
        for handle in handles:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        with self._handles_lock:
            self._handles.clear()

        if self._reserved_sock is not None:
            self._reserved_sock.close()
            self._reserved_sock = None
        if self._control_thread is not None:
            self._control_thread.stop()
            self._control_thread = None
        self.serving.close()

    # -- worker management -----------------------------------------------------------

    def _spawn(self, shard_id: int) -> _WorkerHandle:
        spec = _WorkerSpec(
            shard_id=shard_id,
            registry_root=self.registry_root,
            space=self.key.space,
            application=self.key.application,
            host=self.host,
            public_port=self.port,
            control_port=self.control_port,
            batch_config=self.batch_config,
            request_deadline_s=self.request_deadline_s,
            backend=self.backend,
        )
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_shard_worker_main,
            args=(spec, child_conn),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(self.spawn_timeout_s):
                process.terminate()
                raise RuntimeError(
                    f"shard {shard_id} did not come up in {self.spawn_timeout_s}s"
                )
            try:
                info = parent_conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"shard {shard_id} died during startup "
                    f"(exit code {process.exitcode})"
                ) from None
        finally:
            parent_conn.close()
        if "error" in info:
            process.join(timeout=5.0)
            raise RuntimeError(f"shard {shard_id} failed to start: {info['error']}")

        handle = _WorkerHandle(
            shard_id=shard_id,
            process=process,
            private_port=info["private_port"],
            spawned_unix=time.time(),
        )
        with self._handles_lock:
            self._handles[shard_id] = handle
        obs.counter("shard.workers_spawned").inc()
        return handle

    def _monitor(self) -> None:
        """Wait on process sentinels; respawn whatever dies."""
        while not self._stopping.is_set():
            with self._handles_lock:
                sentinels = {
                    h.process.sentinel: h for h in self._handles.values()
                }
            if not sentinels:
                if self._stopping.wait(0.1):
                    return
                continue
            ready = multiprocessing.connection.wait(
                list(sentinels), timeout=0.25
            )
            for sentinel in ready:
                if self._stopping.is_set():
                    return
                handle = sentinels[sentinel]
                handle.process.join()
                obs.counter("shard.worker_deaths").inc()
                with self._handles_lock:
                    if self._handles.get(handle.shard_id) is not handle:
                        continue  # already replaced
                    del self._handles[handle.shard_id]
                if self.respawns >= self.max_respawns:
                    # A crash loop must not fork forever; the fleet keeps
                    # serving on the surviving shards.
                    obs.counter("shard.respawns_exhausted").inc()
                    continue
                self.respawns += 1
                time.sleep(self.respawn_backoff_s)
                try:
                    self._spawn(handle.shard_id)
                    obs.counter("shard.workers_respawned").inc()
                except Exception:
                    obs.counter("shard.respawn_failures").inc()

    # -- fleet-wide model swaps --------------------------------------------------------

    async def _broadcast_reload(self, version: int) -> int:
        """Tell every live shard to load ``version``; returns the ack count.

        Runs on the control server's loop (it is the ServingManager's
        ``on_swap`` hook).  Per-shard failures are retried briefly, then
        counted and left for reconciliation — a dead shard reloads the
        latest version when it respawns, a wedged one answers the next
        broadcast; meanwhile it still serves the previous version, which
        the version-gating contract permits.
        """
        with self._handles_lock:
            handles = sorted(self._handles.values(), key=lambda h: h.shard_id)
        results = await asyncio.gather(
            *(self._reload_one(handle, version) for handle in handles)
        )
        return sum(results)

    async def _reload_one(self, handle: _WorkerHandle, version) -> bool:
        for attempt in range(3):
            try:
                client = AsyncServeClient("127.0.0.1", handle.private_port)
                await client.connect()
                try:
                    reply = await client.request(
                        {"op": "reload", "version": version}, check=False
                    )
                finally:
                    await client.close()
                if reply.get("ok"):
                    obs.counter("shard.reload_acks").inc()
                    return True
            except (OSError, EOFError, asyncio.IncompleteReadError):
                pass
            await asyncio.sleep(0.05 * (attempt + 1))
        obs.counter("shard.reload_failures").inc()
        return False

    def publish_model(self, model, timeout: float = 30.0) -> int:
        """Publish ``model`` and roll it out fleet-wide; returns its version.

        Runs the learner's own publish path on the control loop: registry
        publish, supervisor slot swap, then the reload broadcast — at
        every instant each shard serves either the old or the new
        version, never anything else.
        """
        if self._control_thread is None or self._control_thread.loop is None:
            raise RuntimeError("supervisor is not started")
        future = asyncio.run_coroutine_threadsafe(
            self.serving.publish("manual", model), self._control_thread.loop
        )
        return future.result(timeout)

    # -- fleet introspection -----------------------------------------------------------

    def _shard_request(self, handle: _WorkerHandle, payload: dict) -> dict:
        with ServeClient(
            "127.0.0.1", handle.private_port, timeout=5.0, retry=NO_RETRY
        ) as client:
            return client.request(payload)

    def fleet_stats(self) -> Dict[str, object]:
        """Aggregate + per-shard serving stats (scraped over private ports)."""
        with self._handles_lock:
            handles = sorted(self._handles.values(), key=lambda h: h.shard_id)
        per_shard: Dict[str, dict] = {}
        for handle in handles:
            try:
                per_shard[str(handle.shard_id)] = self._shard_request(
                    handle, {"op": "stats"}
                )
            except Exception as exc:
                per_shard[str(handle.shard_id)] = {"ok": False, "error": repr(exc)}
        live = [s for s in per_shard.values() if s.get("ok")]
        return {
            "mode": self.mode,
            "shards": self.n_shards,
            "live": len(live),
            "respawns": self.respawns,
            "supervisor_version": self.serving.slot.version,
            "versions": sorted({s["model_version"] for s in live}),
            "requests": sum(s["requests"] for s in live),
            "predictions": sum(s["predictions"] for s in live),
            "per_shard": per_shard,
        }

    def fleet_metrics(self) -> Tuple[List[Tuple[int, dict]], dict]:
        """Per-shard obs snapshots and their deterministic merge.

        The merge folds shards in ascending shard-id order into a fresh
        registry — same in-order contract as ``repro.parallel``'s worker
        aggregation, so two scrapes of the same fleet state agree bit
        for bit.
        """
        with self._handles_lock:
            handles = sorted(self._handles.values(), key=lambda h: h.shard_id)
        snapshots: List[Tuple[int, dict]] = []
        for handle in handles:
            try:
                reply = self._shard_request(handle, {"op": "metrics"})
                snapshots.append((handle.shard_id, reply["metrics"]))
            except Exception:
                obs.counter("shard.metrics_scrape_failures").inc()
        merged = MetricsRegistry()
        for _, snapshot in snapshots:
            merged.merge(snapshot)
        return snapshots, merged.snapshot()

    def prometheus_dump(self) -> str:
        """The whole fleet in Prometheus text format, ``shard``-labeled."""
        snapshots, _ = self.fleet_metrics()
        series = [
            ({"shard": str(shard_id), "backend": self.backend}, snapshot)
            for shard_id, snapshot in snapshots
        ]
        series.append(
            ({"shard": "supervisor", "backend": self.backend}, obs.snapshot())
        )
        return prometheus_text_multi(series)

    def flush_metrics(self, path: Union[str, Path]) -> Path:
        """Write per-shard, merged-fleet, and supervisor snapshots as JSONL."""
        snapshots, merged = self.fleet_metrics()
        path = Path(path)
        append = False
        for shard_id, snapshot in snapshots:
            write_jsonl(snapshot, path, run=f"shard{shard_id}", append=append)
            append = True
        write_jsonl(merged, path, run="fleet", append=append)
        write_jsonl(obs.snapshot(), path, run="supervisor", append=True)
        return path


# -- assembly ----------------------------------------------------------------------


def build_sharded_service(
    dataset,
    registry_root: Union[str, Path],
    n_shards: int = 2,
    space: str = "demo",
    application: str = "suite",
    host: str = "127.0.0.1",
    port: int = 0,
    generations: int = 3,
    update_generations: int = 5,
    population_size: int = 10,
    seed: int = 0,
    batch_config: Optional[BatchConfig] = None,
    request_deadline_s: float = 30.0,
    max_respawns: int = 16,
    backend: str = "cpu",
) -> ShardSupervisor:
    """Train, publish, and assemble an (unstarted) shard supervisor.

    The sharded twin of :func:`~repro.serve.bootstrap.build_service` —
    and built *through* it, so the learner bootstrap is byte-identical
    between single-process and sharded serving; the server it assembles
    becomes the fleet's loopback control server.
    """
    control_server, serving, _registry = build_service(
        dataset,
        registry_root,
        space=space,
        application=application,
        host="127.0.0.1",
        port=0,
        generations=generations,
        update_generations=update_generations,
        population_size=population_size,
        seed=seed,
        batch_config=batch_config,
        request_deadline_s=request_deadline_s,
        backend=backend,
    )
    return ShardSupervisor(
        serving,
        registry_root=registry_root,
        n_shards=n_shards,
        host=host,
        port=port,
        batch_config=batch_config,
        request_deadline_s=request_deadline_s,
        max_respawns=max_respawns,
        control_server=control_server,
    )
