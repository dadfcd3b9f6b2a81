"""Benchmark: the online serving subsystem under load.

Boots the full service (genetic bootstrap → registry publish → TCP server
with micro-batching), then measures three things the ISSUE acceptance
criteria name:

1. **Throughput** — the load generator drives concurrent single-profile
   predictions; non-smoke runs assert >= 1000 predictions/sec sustained.
2. **Batching equivalence** — every response under load is bit-identical
   to the sequential ``predict_one`` answer of the model version that
   served it.
3. **Live update** — an outlier application triggers a genetic
   re-specification mid-traffic; the swap must complete with zero failed
   in-flight requests and a monotonically increased version.

Writes latency percentiles (p50/p95/p99), throughput, and the server-side
batch-occupancy histogram to ``BENCH_serve.json`` at the repository root.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_serve.py -q

``REPRO_BENCH_SMOKE=1`` shrinks the load and skips the throughput floor so
CI can exercise the path quickly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.serve import (
    BatchConfig,
    LoadGenerator,
    ModelKey,
    ServeClient,
    ServerThread,
    build_service,
    build_sharded_service,
    demo_dataset,
    outlier_profiles,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

CONCURRENCY = 8 if SMOKE else 32
REQUESTS = 2_000 if SMOKE else 20_000
UPDATE_TRAFFIC = 500 if SMOKE else 4_000

SHARDS = 2 if SMOKE else 8
SHARD_REQUESTS = 2_000 if SMOKE else 40_000
SHARD_PROCESSES = 2 if SMOKE else 4
SOAK_CLIENTS = 200 if SMOKE else 4_000

RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    if not RESULTS:
        return
    payload = {
        "smoke": SMOKE,
        "concurrency": CONCURRENCY,
        "requests": REQUESTS,
        **RESULTS,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report_dir = obs.default_report_dir()
    if report_dir is not None and obs.enabled():
        obs.export_jsonl(report_dir / "metrics_serve.jsonl", run="serve")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    server, serving, registry = build_service(
        demo_dataset(n_apps=4, n_per_app=30, seed=0),
        tmp_path_factory.mktemp("registry"),
        generations=2,
        update_generations=1,
        population_size=8,
        batch_config=BatchConfig(max_batch=64, max_latency_s=0.002),
    )
    with ServerThread(server) as thread:
        yield thread, server, serving, registry
    serving.close()


def _request_rows(n: int, n_vars: int = 5, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(loc=0.8, scale=0.6, size=(n, n_vars))


class TestServeThroughput:
    def test_load_generator_sustains_floor(self, service):
        thread, server, *_ = service
        rows = _request_rows(256)
        report = LoadGenerator(
            "127.0.0.1", thread.port, rows, concurrency=CONCURRENCY
        ).run(REQUESTS)

        assert report.failed == 0
        batching = report.server_stats["batching"]
        RESULTS["load"] = {
            "throughput_rps": report.throughput_rps,
            "latency_ms": report.latency_ms,
            "requests": report.requests,
            "failed": report.failed,
            "mean_batch_occupancy": batching["mean_occupancy"],
            "batch_occupancy_histogram": batching["occupancy_histogram"],
            "batching_ticks": batching["ticks"],
        }
        if not SMOKE:
            assert report.throughput_rps >= 1000.0, (
                f"expected >= 1000 predictions/sec, measured "
                f"{report.throughput_rps}"
            )
        # Micro-batching actually coalesced concurrent requests.
        assert batching["mean_occupancy"] > 1.0

    def test_batched_responses_bit_identical_to_sequential(self, service):
        thread, server, *_ = service
        version, model = server.slot.get()
        rows = _request_rows(64, seed=2)

        # Concurrent clients (batched server-side) ...
        results: dict = {}

        def drive(indices):
            with ServeClient(port=thread.port) as client:
                for i in indices:
                    results[i] = client.predict_row(rows[i].tolist())

        chunks = np.array_split(np.arange(len(rows)), 8)
        threads = [
            threading.Thread(target=drive, args=(chunk,)) for chunk in chunks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # ... against the sequential reference, per served version.
        mismatches = 0
        for i, reply in results.items():
            assert reply["model_version"] == version
            expected = model.predict_one(rows[i][:3], rows[i][3:])
            if reply["prediction"] != expected:
                mismatches += 1
        RESULTS["equivalence"] = {
            "rows_checked": len(results),
            "mismatches": mismatches,
        }
        assert mismatches == 0

    def test_live_update_zero_failed_requests(self, service):
        thread, server, serving, registry = service
        v_before = server.slot.version
        rows = _request_rows(128, seed=3)
        failures = []
        versions_seen = set()
        stop = threading.Event()

        def traffic():
            with ServeClient(port=thread.port) as client:
                sent = 0
                while sent < UPDATE_TRAFFIC and not stop.is_set():
                    try:
                        reply = client.predict_row(
                            rows[sent % len(rows)].tolist()
                        )
                        versions_seen.add(reply["model_version"])
                    except Exception as exc:  # any failure is a finding
                        failures.append(repr(exc))
                    sent += 1

        workers = [threading.Thread(target=traffic) for _ in range(4)]
        for w in workers:
            w.start()

        # Mid-traffic: a behaviorally new application forces a genetic
        # re-specification and an atomic model swap.
        with ServeClient(port=thread.port) as client:
            profiles = [
                {"x": p.x.tolist(), "y": p.y.tolist(), "z": p.z}
                for p in outlier_profiles("hot-new-app", n=12)
            ]
            reply = client.observe("hot-new-app", profiles)
            assert reply["respec_scheduled"], (
                "outlier application failed to trigger an update: "
                f"{reply}"
            )
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                stats = client.stats()
                updates = stats["updates"]
                if updates["stream"]["respecs"] or updates["updates_failed"]:
                    break
                time.sleep(0.05)

        stop.set()
        for w in workers:
            w.join(60)
        v_after = server.slot.version

        RESULTS["live_update"] = {
            "version_before": v_before,
            "version_after": v_after,
            "traffic_requests": UPDATE_TRAFFIC * 4,
            "failed_during_update": len(failures),
            "versions_observed": sorted(versions_seen),
            "respecs": serving.stats_dict()["stream"]["respecs"],
        }
        assert not failures, f"requests failed during update: {failures[:3]}"
        assert serving.stats.updates_failed == 0
        assert v_after == v_before + 1
        assert versions_seen <= {v_before, v_after}
        # Durable too, not just live.
        assert registry.versions(ModelKey("demo", "suite"))[-1] == v_after


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    supervisor = build_sharded_service(
        demo_dataset(n_apps=4, n_per_app=30, seed=0),
        tmp_path_factory.mktemp("registry_sharded"),
        n_shards=SHARDS,
        generations=2,
        update_generations=1,
        population_size=8,
        batch_config=BatchConfig(max_batch=64, max_latency_s=0.002),
    )
    with supervisor:
        yield supervisor


class TestShardedServe:
    """The sharded fleet under multi-process load.

    Results land under ``RESULTS["sharded"]``.  ``speedup_vs_single``
    and the per-shard split are recorded as *informational* fields (see
    ``scripts/check_bench.py``): parallel speedup is a property of the
    host's core count (``cores`` is recorded alongside), and per-shard
    balance is kernel scheduling luck.  The >= 5x acceptance assert
    therefore only arms on machines with >= 8 cores.
    """

    def test_fleet_throughput_multiprocess_load(self, fleet):
        rows = _request_rows(256)
        report = LoadGenerator(
            "127.0.0.1",
            fleet.port,
            rows,
            concurrency=CONCURRENCY,
            processes=SHARD_PROCESSES,
        ).run(SHARD_REQUESTS)
        assert report.failed == 0

        stats = fleet.fleet_stats()
        assert stats["live"] == SHARDS
        # Every shard serves the same published version.
        assert len(stats["versions"]) == 1

        per_shard = {}
        for shard_id, s in stats["per_shard"].items():
            if not s.get("ok"):
                continue
            per_shard[shard_id] = {
                "requests": s["requests"],
                "predictions": s["predictions"],
                "mean_batch_occupancy": s["batching"]["mean_occupancy"],
            }
        single_rps = RESULTS.get("load", {}).get("throughput_rps", 0.0)
        speedup = (
            round(report.throughput_rps / single_rps, 2) if single_rps else 0.0
        )
        RESULTS["sharded"] = {
            "shards": SHARDS,
            "cores": os.cpu_count(),
            "mode": fleet.mode,
            "driver_processes": SHARD_PROCESSES,
            "load": {
                "throughput_rps": report.throughput_rps,
                "latency_ms": report.latency_ms,
                "requests": report.requests,
                "failed": report.failed,
            },
            "speedup_vs_single": speedup,
            "per_shard": per_shard,
        }
        if not SMOKE:
            assert report.throughput_rps >= 1000.0
        if not SMOKE and (os.cpu_count() or 1) >= 8:
            assert speedup >= 5.0, (
                f"expected >= 5x over single-process serving on an "
                f"{os.cpu_count()}-core host, measured {speedup}x"
            )

    def test_fleet_soak_connection_churn(self, fleet):
        rows = _request_rows(128, seed=5)
        report = LoadGenerator(
            "127.0.0.1",
            fleet.port,
            rows,
            concurrency=CONCURRENCY,
            processes=SHARD_PROCESSES,
        ).soak(SOAK_CLIENTS, requests_per_client=4)
        assert report.failed == 0
        # Connection churn really happened: one TCP lifetime per client.
        assert report.connections >= SOAK_CLIENTS
        RESULTS.setdefault("sharded", {})["soak"] = {
            "clients": report.clients,
            "connections": report.connections,
            "requests": report.requests,
            "failed": report.failed,
            "throughput_rps": report.throughput_rps,
        }
