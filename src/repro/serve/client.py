"""Clients for the prediction server, plus the load generator.

* :class:`ServeClient` — a small blocking client over a plain socket.
  One instance per thread; used by the quickstart, the CLI smoke
  round-trip, and anything that just wants an answer.  Wraps every
  request in a :class:`~repro.faults.RetryPolicy`: transport failures
  (dropped/reset connections, per-attempt socket timeouts, corrupted
  reply frames) tear the socket down, back off deterministically, and
  retry on a fresh connection; retryable server statuses (408/429/500/
  503 by default) back off without reconnecting.  Non-retryable server
  errors (400/404...) raise :class:`ServeError` immediately.
* :class:`AsyncServeClient` — asyncio streams, one in-flight request per
  connection; the load generator opens one per concurrent worker.
* :class:`LoadGenerator` — drives a server at configurable concurrency
  and collects the latency distribution, throughput, and the server-side
  batch-occupancy histogram for ``BENCH_serve.json``.

Retry caveat: a retried request is at-least-once delivery — a request
that executed but whose reply was lost will execute again.  ``predict``
ops are pure reads, so this is safe; for ``observe`` (which mutates
update bookkeeping) pass ``retrying=NO_RETRY`` if duplicate delivery
matters more than availability.

Command-line smoke usage (used by CI against a detached server)::

    python -m repro.serve.client --port 7654 --smoke
    python -m repro.serve.client --port 7654 --load 16 --requests 2000
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import struct
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.faults import NO_RETRY, RetryPolicy

_LENGTH = struct.Struct(">I")

#: Exceptions that mean "this connection is no longer trustworthy": the
#: socket is torn down and the next attempt reconnects.  Decode failures
#: are included because a half/corrupt frame leaves the stream unframed.
_TRANSPORT_ERRORS = (
    ConnectionError,
    socket.timeout,
    OSError,
    EOFError,
    json.JSONDecodeError,
    UnicodeDecodeError,
    struct.error,
)


class ServeError(RuntimeError):
    """The server answered ``ok: false``."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("error", "server error"))
        self.status = payload.get("status", 500)
        self.payload = payload


def _encode(payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


# -- blocking client -------------------------------------------------------------------


class ServeClient:
    """Blocking length-prefixed-JSON client.  Not thread-safe; one per thread.

    A context manager: ``with ServeClient(...) as client:`` guarantees the
    socket is closed however the block exits.  Any exception mid-request
    also closes the socket immediately (a half-finished exchange leaves
    the stream unframed, so the connection cannot be reused) — the next
    request reconnects transparently.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7654,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sock: Optional[socket.socket] = None
        # Monotonic per-instance request sequence number.  Each request
        # derives its backoff jitter from (policy seed, this number), so
        # the schedule is deterministic for a given client history and
        # NOT reset by reconnects — a retry that lands on a different
        # shard after a 429/timeout backs off on the same derived
        # schedule it started with (DESIGN.md §8).
        self._request_seq = 0
        self._connect()

    # -- connection management ---------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            timeout = self.retry.attempt_timeout_s or self.timeout
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
        return self._sock

    def _teardown(self) -> None:
        """Drop the socket; a later request reconnects."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- requests ------------------------------------------------------------------

    def request(self, payload: dict, retrying: Optional[RetryPolicy] = None) -> dict:
        """One request/reply exchange under the retry policy.

        ``retrying`` overrides the client's policy per call (e.g.
        ``NO_RETRY`` for non-idempotent ops).  Transport errors reconnect
        before the next attempt; retryable server statuses back off on
        the same connection; other ``ok: false`` replies raise
        :class:`ServeError` at once.
        """
        self._request_seq += 1
        policy = retrying if retrying is not None else self.retry
        # One derived jitter stream per request: deterministic given the
        # client's request history, decorrelated between requests (and
        # between clients with different seeds), stable across the
        # teardown/reconnect cycle a shard failover causes.
        policy = policy.derive(self._request_seq)
        frame = _encode(payload)
        failures = 0
        for attempt, is_last in policy.attempts():
            try:
                reply = self._exchange(frame)
            except _TRANSPORT_ERRORS:
                # Mid-request failure: the stream may hold half a frame,
                # so the socket must not be reused (this also plugs the
                # old leak where an errored connection stayed open).
                self._teardown()
                if is_last:
                    obs.counter("client.giveups").inc()
                    raise
                failures += 1
                obs.counter("client.retries").inc()
                policy.sleep(failures)
                continue
            if reply.get("ok", False):
                return reply
            status = int(reply.get("status", 500))
            if is_last or not policy.retryable_status(status):
                if is_last:
                    obs.counter("client.giveups").inc()
                raise ServeError(reply)
            failures += 1
            obs.counter("client.retries").inc()
            policy.sleep(failures)
        raise AssertionError("unreachable")  # pragma: no cover

    def _exchange(self, frame: bytes) -> dict:
        sock = self._connect()
        sock.sendall(frame)
        header = self._recv_exact(sock, _LENGTH.size)
        (length,) = _LENGTH.unpack(header)
        return json.loads(self._recv_exact(sock, length).decode("utf-8"))

    @staticmethod
    def _recv_exact(sock: socket.socket, n: int) -> bytes:
        chunks = []
        while n:
            chunk = sock.recv(n)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    # -- convenience ops ---------------------------------------------------------

    def ping(self) -> bool:
        return self.request({"op": "ping"})["ok"]

    def info(self) -> dict:
        return self.request({"op": "info"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def metrics(self) -> dict:
        """The server's ``repro.obs`` registry snapshot."""
        return self.request({"op": "metrics"})["metrics"]

    def metrics_prometheus(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self.request({"op": "metrics", "format": "prometheus"})["text"]

    def predict(self, x: Sequence[float], y: Sequence[float]) -> dict:
        return self.request({"op": "predict", "x": list(x), "y": list(y)})

    def predict_row(self, row: Sequence[float]) -> dict:
        return self.request({"op": "predict", "row": list(row)})

    def predict_batch(self, rows) -> dict:
        rows = np.asarray(rows, dtype=float)
        return self.request({"op": "predict_batch", "rows": rows.tolist()})

    def observe(
        self,
        application: str,
        profiles: Sequence[dict],
        retrying: Optional[RetryPolicy] = None,
    ) -> dict:
        return self.request(
            {"op": "observe", "application": application, "profiles": list(profiles)},
            retrying=retrying,
        )

    def observe_stream(
        self,
        application: str,
        profiles: Sequence[dict],
        retrying: Optional[RetryPolicy] = None,
    ) -> dict:
        """:meth:`observe` under the op's streaming name."""
        return self.request(
            {
                "op": "observe_stream",
                "application": application,
                "profiles": list(profiles),
            },
            retrying=retrying,
        )

    def shutdown(self) -> dict:
        # Never retried: a lost reply almost certainly means the server
        # already stopped, and re-sending would only wait out backoffs
        # against a dead endpoint.
        return self.request({"op": "shutdown"}, retrying=NO_RETRY)


def wait_for_server(
    host: str, port: int, timeout: float = 20.0, interval: float = 0.1
) -> ServeClient:
    """Poll until the server accepts a ping; returns a connected client."""
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        client = None
        try:
            client = ServeClient(host, port, retry=NO_RETRY)
            client.ping()
            client.retry = RetryPolicy()  # polling done: serve requests robustly
            return client
        except (OSError, ServeError) as exc:
            if client is not None:
                client.close()  # a connected-but-unhealthy client must not leak
            last_error = exc
            time.sleep(interval)
    raise TimeoutError(f"server at {host}:{port} not ready: {last_error}")


# -- async client ----------------------------------------------------------------------


class AsyncServeClient:
    """Asyncio client; one outstanding request per connection."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "AsyncServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def request(self, payload: dict, check: bool = True) -> dict:
        self._writer.write(_encode(payload))
        await self._writer.drain()
        header = await self._reader.readexactly(_LENGTH.size)
        (length,) = _LENGTH.unpack(header)
        reply = json.loads((await self._reader.readexactly(length)).decode("utf-8"))
        if check and not reply.get("ok", False):
            raise ServeError(reply)
        return reply


# -- load generation -------------------------------------------------------------------


@dataclasses.dataclass
class LoadReport:
    """What one load-generation run measured."""

    requests: int
    ok: int
    failed: int
    duration_s: float
    throughput_rps: float
    latency_ms: Dict[str, float]
    model_versions: List[int]
    server_stats: Dict[str, object]
    #: driver processes the load was generated from (1 = in-process)
    processes: int = 1
    #: TCP connections opened over the run (> concurrency under churn)
    connections: int = 0
    #: simulated clients driven (soak mode; 0 for plain runs)
    clients: int = 0

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def percentiles_ms(latencies_s: Sequence[float]) -> Dict[str, float]:
    if not latencies_s:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    arr = np.asarray(latencies_s, dtype=float) * 1000.0
    return {
        "p50": round(float(np.percentile(arr, 50)), 3),
        "p95": round(float(np.percentile(arr, 95)), 3),
        "p99": round(float(np.percentile(arr, 99)), 3),
        "mean": round(float(arr.mean()), 3),
        "max": round(float(arr.max()), 3),
    }


async def _drive_load(
    host: str,
    port: int,
    rows: np.ndarray,
    concurrency: int,
    total_requests: int,
    requests_per_connection: Optional[int] = None,
) -> Dict[str, object]:
    """One event loop's worth of load; returns raw tallies for aggregation.

    ``requests_per_connection`` bounds how many requests ride one TCP
    connection before the worker reconnects — the connection-churn knob
    the soak profile uses to simulate large client populations (each
    connection stands in for one short-lived client).  ``None`` keeps the
    plain mode: one long-lived connection per concurrency slot.
    """
    counter = {"next": 0, "ok": 0, "failed": 0, "connections": 0}
    latencies: List[float] = []
    versions: set = set()

    async def worker() -> None:
        while counter["next"] < total_requests:
            client = await AsyncServeClient(host, port).connect()
            counter["connections"] += 1
            on_this_connection = 0
            try:
                while True:
                    i = counter["next"]
                    if i >= total_requests:
                        return
                    counter["next"] = i + 1
                    row = rows[i % len(rows)]
                    start = time.perf_counter()
                    try:
                        reply = await client.request(
                            {"op": "predict", "row": row.tolist()}
                        )
                    except ServeError:
                        counter["failed"] += 1
                        continue
                    latencies.append(time.perf_counter() - start)
                    versions.add(reply["model_version"])
                    counter["ok"] += 1
                    on_this_connection += 1
                    if (
                        requests_per_connection is not None
                        and on_this_connection >= requests_per_connection
                    ):
                        break  # churn: this simulated client disconnects
            finally:
                await client.close()

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return {
        "ok": counter["ok"],
        "failed": counter["failed"],
        "connections": counter["connections"],
        "latencies": latencies,
        "versions": sorted(versions),
    }


def _load_process_main(
    conn, host, port, rows, concurrency, total_requests, requests_per_connection
):
    """Entry point of one load-driver process (multi-process drive mode)."""
    try:
        result = asyncio.run(
            _drive_load(
                host, port, rows, concurrency, total_requests,
                requests_per_connection,
            )
        )
        conn.send(result)
    except BaseException as exc:  # surfaced by the parent as a failed share
        conn.send({"error": repr(exc)})
    finally:
        conn.close()


class LoadGenerator:
    """Drives concurrent single-profile predictions at a server.

    Three drive modes, composable:

    * **in-process** (default) — one asyncio loop, ``concurrency``
      long-lived connections;
    * **multi-process** (``processes > 1``) — forks that many driver
      processes, each running its own loop at ``concurrency``; the way to
      saturate a sharded server from one generator (a single GIL cannot
      fill 8 shards);
    * **soak** (:meth:`soak`) — simulates a large client population over
      connection churn: each simulated client connects, issues
      ``requests_per_client`` predictions, and disconnects, so hundreds
      of thousands of clients flow through ``concurrency x processes``
      live sockets.
    """

    def __init__(
        self,
        host: str,
        port: int,
        rows: np.ndarray,
        concurrency: int = 16,
        processes: int = 1,
    ):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or not len(rows):
            raise ValueError("rows must be a non-empty 2-D array")
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.host = host
        self.port = port
        self.rows = rows
        self.concurrency = concurrency
        self.processes = processes

    def run(
        self,
        total_requests: int,
        requests_per_connection: Optional[int] = None,
        clients: int = 0,
    ) -> LoadReport:
        """Issue ``total_requests`` predictions and report the distribution."""
        start = time.perf_counter()
        if self.processes == 1:
            shares = [
                asyncio.run(
                    _drive_load(
                        self.host, self.port, self.rows, self.concurrency,
                        total_requests, requests_per_connection,
                    )
                )
            ]
        else:
            shares = self._run_processes(total_requests, requests_per_connection)
        duration = time.perf_counter() - start

        errors = [s["error"] for s in shares if "error" in s]
        if errors:
            raise RuntimeError(f"load driver process failed: {errors[0]}")

        latencies = [lat for s in shares for lat in s["latencies"]]
        versions = sorted({v for s in shares for v in s["versions"]})
        ok = sum(s["ok"] for s in shares)
        failed = sum(s["failed"] for s in shares)
        connections = sum(s["connections"] for s in shares)
        done = ok + failed
        return LoadReport(
            requests=done,
            ok=ok,
            failed=failed,
            duration_s=round(duration, 4),
            throughput_rps=round(done / duration, 1) if duration else 0.0,
            latency_ms=percentiles_ms(latencies),
            model_versions=versions,
            server_stats=self._server_stats(),
            processes=self.processes,
            connections=connections,
            clients=clients,
        )

    def soak(self, clients: int, requests_per_client: int = 4) -> LoadReport:
        """Simulate ``clients`` short-lived clients over connection churn.

        Each client is one connect / ``requests_per_client`` predictions /
        disconnect cycle; ``concurrency x processes`` of them are alive at
        any instant.  The report's ``connections`` counts how many client
        lifetimes actually ran.
        """
        if clients < 1 or requests_per_client < 1:
            raise ValueError("clients and requests_per_client must be >= 1")
        return self.run(
            clients * requests_per_client,
            requests_per_connection=requests_per_client,
            clients=clients,
        )

    # -- internals -----------------------------------------------------------------

    def _run_processes(self, total_requests, requests_per_connection):
        import multiprocessing

        share, remainder = divmod(total_requests, self.processes)
        workers = []
        for rank in range(self.processes):
            n = share + (1 if rank < remainder else 0)
            if n == 0:
                continue
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_load_process_main,
                args=(
                    child_conn, self.host, self.port, self.rows,
                    self.concurrency, n, requests_per_connection,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn))

        shares = []
        for proc, conn in workers:
            try:
                shares.append(conn.recv())
            except EOFError:
                shares.append({"error": f"driver pid {proc.pid} died"})
            finally:
                conn.close()
        for proc, _ in workers:
            proc.join()
        return shares

    def _server_stats(self) -> Dict[str, object]:
        async def fetch():
            client = await AsyncServeClient(self.host, self.port).connect()
            try:
                return await client.request({"op": "stats"})
            finally:
                await client.close()

        stats = asyncio.run(fetch())
        return {k: v for k, v in stats.items() if k not in ("ok",)}


# -- CLI -------------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="Smoke/load client for the repro prediction server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7654)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="ping, info, one predict, one predict_batch; exit non-zero on failure",
    )
    parser.add_argument(
        "--load",
        type=int,
        metavar="CONCURRENCY",
        default=0,
        help="run the load generator at this concurrency",
    )
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="load-driver processes (multi-process drive mode)",
    )
    parser.add_argument(
        "--soak",
        type=int,
        metavar="CLIENTS",
        default=0,
        help="soak profile: simulate this many short-lived clients over "
        "connection churn (requires --load for the live concurrency)",
    )
    parser.add_argument(
        "--requests-per-client",
        type=int,
        default=4,
        help="predictions each simulated soak client issues before "
        "disconnecting",
    )
    parser.add_argument(
        "--check-metrics",
        action="store_true",
        help="fetch the metrics op and fail unless the server has counted "
        "a non-zero number of requests and predictions",
    )
    parser.add_argument(
        "--shutdown", action="store_true", help="stop the server when done"
    )
    parser.add_argument(
        "--wait",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="readiness-poll timeout before the first request (raise it "
        "when the server bootstraps a model or a sharded fleet first)",
    )
    args = parser.parse_args(argv)

    client = wait_for_server(args.host, args.port, timeout=args.wait)
    info = client.info()
    print(f"server up: model v{info['model_version']}, "
          f"{len(info['variables'])} variables, {info['n_terms']} terms")

    rng = np.random.default_rng(0)
    n_vars = len(info["variables"])
    rows = np.abs(rng.normal(loc=1.0, scale=0.3, size=(64, n_vars))) + 0.1

    status = 0
    if args.smoke:
        single = client.predict_row(rows[0].tolist())
        batch = client.predict_batch(rows[:8])
        same = single["prediction"] == batch["predictions"][0]
        print(f"predict: {single['prediction']:.6g} "
              f"(batch head matches: {same})")
        if not same:
            status = 1
    if args.load:
        generator = LoadGenerator(
            args.host, args.port, rows,
            concurrency=args.load, processes=args.processes,
        )
        if args.soak:
            report = generator.soak(
                args.soak, requests_per_client=args.requests_per_client
            )
        else:
            report = generator.run(args.requests)
        print(json.dumps(report.to_dict(), indent=2))
        if report.failed:
            status = 1
    if args.check_metrics:
        counters = client.metrics().get("counters", {})
        requests = counters.get("serve.requests", 0)
        predictions = counters.get("serve.predictions", 0)
        print(f"metrics: serve.requests={requests} "
              f"serve.predictions={predictions}")
        if requests <= 0 or predictions <= 0:
            print("metrics check failed: expected non-zero request and "
                  "prediction counts")
            status = 1
    if args.shutdown:
        try:
            client.shutdown()
        except (ServeError, ConnectionError):
            pass
    client.close()
    return status


if __name__ == "__main__":
    import sys

    sys.exit(main())
