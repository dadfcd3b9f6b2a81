"""The sharded serving tier: fleet lifecycle, swap atomicity, drain.

The properties DESIGN.md §10 promises:

* a fleet of N worker processes serves the single public port (kernel
  ``SO_REUSEPORT`` balancing) and is indistinguishable from one server
  to clients;
* fleet-wide model swaps are version-atomic — while a publish rolls out,
  clients observe versions from ``{v, v+1}`` only, and every prediction
  is bit-identical to the single-process server holding the same model
  (property-tested with hypothesis), and every publish of the single
  learner — a coefficient refresh included — reaches every shard;
* a dead shard is respawned by the supervisor and rejoins on the latest
  registry version;
* ``serve --shards N`` drains on SIGTERM: flushes the metrics JSONL and
  exits 0 (tested against the real CLI in a subprocess).
"""

from __future__ import annotations

import copy
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    BatchConfig,
    ModelSlot,
    PredictionServer,
    ServeClient,
    ServerThread,
    build_sharded_service,
    demo_dataset,
    supports_reuse_port,
)
from repro.serve.bootstrap import _app_records
from repro.serve.shard import _reserve_reuse_port

N_SHARDS = 3

#: One prediction row (3 software + 2 hardware characteristics).
ROWS = st.lists(
    st.lists(
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
        min_size=5,
        max_size=5,
    ),
    min_size=1,
    max_size=4,
)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A 3-shard fleet plus a single-process twin holding the same model."""
    supervisor = build_sharded_service(
        demo_dataset(seed=0),
        tmp_path_factory.mktemp("registry"),
        n_shards=N_SHARDS,
        generations=1,
        population_size=6,
        batch_config=BatchConfig(max_batch=32, max_latency_s=0.001),
    ).start()
    model, version = supervisor.registry.load(supervisor.key)
    twin = PredictionServer(ModelSlot(model, version))
    twin_thread = ServerThread(twin).start()
    try:
        yield supervisor, twin_thread.port
    finally:
        twin_thread.stop()
        supervisor.drain()


def _predict(port: int, row) -> dict:
    with ServeClient(port=port, timeout=10.0) as client:
        return client.predict_row(list(row))


# -- fleet basics ----------------------------------------------------------------------


def test_supports_reuse_port_is_a_real_probe():
    verdict = supports_reuse_port()
    assert isinstance(verdict, bool)
    # The probe, not the constant, is the source of truth — but a platform
    # without the constant can never support it.
    import socket

    if not hasattr(socket, "SO_REUSEPORT"):
        assert verdict is False


def test_reserve_reuse_port_pins_a_port():
    if not supports_reuse_port():
        pytest.skip("platform without SO_REUSEPORT")
    sock, port = _reserve_reuse_port("127.0.0.1", 0)
    try:
        assert port > 0
        sock2, port2 = _reserve_reuse_port("127.0.0.1", port)
        sock2.close()
        assert port2 == port
    finally:
        sock.close()


def test_fleet_serves_all_shards_live(fleet):
    supervisor, _ = fleet
    reply = _predict(supervisor.port, [1.0, 0.5, 0.2, 1.0, 1.5])
    assert reply["ok"] and reply["model_version"] >= 1
    stats = supervisor.fleet_stats()
    assert stats["shards"] == N_SHARDS
    assert stats["live"] == N_SHARDS
    assert stats["mode"] == "reuse_port"
    assert set(stats["per_shard"]) == {"0", "1", "2"}
    assert all(s["ok"] for s in stats["per_shard"].values())


def test_start_without_reuse_port_names_it(tmp_path, monkeypatch):
    import repro.serve.shard as shard

    supervisor = build_sharded_service(
        demo_dataset(seed=0),
        tmp_path / "registry",
        n_shards=2,
        generations=1,
        population_size=6,
    )
    monkeypatch.setattr(shard, "supports_reuse_port", lambda: False)
    try:
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            supervisor.start()
    finally:
        supervisor.serving.close()


@pytest.fixture(scope="module")
def learning_fleet(tmp_path_factory):
    """A 2-shard fleet that takes observations, so its versions move
    (kept apart from ``fleet``, whose tests pin the bootstrap model)."""
    supervisor = build_sharded_service(
        demo_dataset(seed=0),
        tmp_path_factory.mktemp("learning"),
        n_shards=2,
        generations=1,
        population_size=6,
    ).start()
    try:
        yield supervisor
    finally:
        supervisor.drain()


def _app0_profiles(n: int, seed: int) -> list:
    return [
        {"x": p.x.tolist(), "y": p.y.tolist(), "z": p.z}
        for p in _app_records("app0", n, np.random.default_rng(seed))
    ]


def test_observe_is_forwarded_to_the_control_plane(learning_fleet):
    """Any shard accepts observations; the single learner answers them."""
    supervisor = learning_fleet
    ingested = supervisor.serving.stream.records_ingested
    with ServeClient(port=supervisor.port, timeout=10.0) as client:
        reply = client.observe("app0", _app0_profiles(3, seed=7))
    assert reply["ok"]
    assert "drift_score" in reply and "respec_scheduled" in reply
    assert supervisor.serving.stream.records_ingested == ingested + 3


def test_refresh_reaches_every_shard(learning_fleet):
    """A coefficient refresh is a publish like any other: the registry,
    the supervisor slot and every shard move to the new version."""
    supervisor = learning_fleet
    before = supervisor.serving.slot.version
    with ServeClient(port=supervisor.port, timeout=10.0) as client:
        reply = client.observe_stream("app0", _app0_profiles(4, seed=8))
    assert reply["ok"] and reply["action"] == "refresh"
    assert reply["model_version"] == before + 1
    assert supervisor.registry.latest_version(supervisor.key) == before + 1
    stats = supervisor.fleet_stats()
    assert stats["live"] == 2
    assert stats["versions"] == [before + 1]


def test_reload_is_version_gated(fleet):
    """Re-delivered/reordered reload broadcasts can never roll back."""
    supervisor, _ = fleet
    with supervisor._handles_lock:
        handle = next(iter(supervisor._handles.values()))
    with ServeClient(port=handle.private_port, timeout=10.0) as client:
        current = client.info()["model_version"]
        stale = client.request({"op": "reload", "version": current})
        assert stale["reloaded"] is False
        assert stale["model_version"] == current
        way_stale = client.request({"op": "reload", "version": 0})
        assert way_stale["reloaded"] is False


def test_shutdown_op_recycles_exactly_one_shard(fleet):
    """A shard is cattle: stopping one respawns it; the fleet never blinks."""
    supervisor, _ = fleet
    with supervisor._handles_lock:
        handle = supervisor._handles[0]
    old_pid = handle.process.pid
    respawns_before = supervisor.respawns
    with ServeClient(port=handle.private_port, timeout=10.0) as client:
        client.shutdown()
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        with supervisor._handles_lock:
            replacement = supervisor._handles.get(0)
        if (
            replacement is not None
            and replacement.process.pid != old_pid
            and replacement.process.is_alive()
        ):
            break
        time.sleep(0.05)
    else:
        pytest.fail("shard 0 was not respawned")
    assert supervisor.respawns == respawns_before + 1
    # The whole fleet (including the respawn) still serves.
    reply = _predict(supervisor.port, [1.0, 0.5, 0.2, 1.0, 1.5])
    assert reply["ok"]
    assert supervisor.fleet_stats()["live"] == N_SHARDS


# -- swap atomicity and single-process equivalence (hypothesis) ------------------------


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=ROWS)
def test_fleet_predictions_bit_identical_to_single_process(fleet, rows):
    """Whatever shard answers, the bytes match the one-process server."""
    supervisor, twin_port = fleet
    for row in rows:
        sharded = _predict(supervisor.port, row)
        single = _predict(twin_port, row)
        assert sharded["prediction"] == single["prediction"]


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=ROWS)
def test_fleet_swap_atomicity_only_v_and_v_plus_1_observed(fleet, rows):
    """During a publish rollout across >= 3 shards, every client-visible
    version is in ``{v, v+1}``, every prediction stays bit-identical to
    the single-process twin, and the fleet converges on ``v+1``."""
    supervisor, twin_port = fleet
    v = supervisor.serving.slot.version
    model, _ = supervisor.registry.load(supervisor.key, v)

    observed: set = set()
    failures: list = []
    stop = threading.Event()

    def poller(worker_id: int) -> None:
        try:
            with ServeClient(port=supervisor.port, timeout=10.0) as client:
                i = 0
                while not stop.is_set():
                    reply = client.predict_row(list(rows[i % len(rows)]))
                    observed.add(reply["model_version"])
                    expected = _predict(twin_port, rows[i % len(rows)])
                    if reply["prediction"] != expected["prediction"]:
                        failures.append((worker_id, reply, expected))
                    i += 1
        except Exception as exc:  # any failure mid-swap is a finding
            failures.append((worker_id, repr(exc)))

    pollers = [
        threading.Thread(target=poller, args=(i,)) for i in range(N_SHARDS)
    ]
    for thread in pollers:
        thread.start()
    try:
        # The same model re-published: the version moves, the bits do not,
        # so the twin stays a valid reference across the swap.
        new_version = supervisor.publish_model(copy.deepcopy(model))
    finally:
        time.sleep(0.05)  # let pollers straddle the post-swap instant
        stop.set()
        for thread in pollers:
            thread.join(30)

    assert not failures, failures[:3]
    assert new_version == v + 1
    assert observed <= {v, v + 1}, f"saw {observed}, rollout was {v}->{v + 1}"
    stats = supervisor.fleet_stats()
    assert stats["versions"] == [new_version]


# -- drain: the CLI under SIGTERM ------------------------------------------------------


class TestSigtermDrain:
    def test_cli_drains_flushes_metrics_and_exits_zero(self, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            REPRO_REPORT_DIR=str(tmp_path / "reports"),
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "serve",
                "--port", "0", "--shards", "2",
                "--registry", str(tmp_path / "registry"),
                "--generations", "1", "--population-size", "6",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        try:
            # Wait for the fleet to come up (the GA bootstrap dominates).
            deadline = time.monotonic() + 120
            lines = []
            for line in proc.stdout:
                lines.append(line)
                if line.startswith("serving "):
                    break
                assert time.monotonic() < deadline, "".join(lines)
            assert any(ln.startswith("serving ") for ln in lines), "".join(lines)

            proc.send_signal(signal.SIGTERM)
            out = proc.stdout.read()
            assert proc.wait(timeout=60) == 0, out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        assert "draining fleet" in out and "fleet drained, exiting" in out
        jsonl = tmp_path / "reports" / "metrics_serve_shards.jsonl"
        assert jsonl.exists(), out
        runs = {
            json.loads(line)["run"]
            for line in jsonl.read_text().splitlines()
            if line.strip()
        }
        assert {"shard0", "shard1", "fleet", "supervisor"} <= runs


# -- fleet observability ---------------------------------------------------------------


def test_prometheus_dump_labels_every_shard(fleet):
    supervisor, _ = fleet
    _predict(supervisor.port, [1.0, 0.5, 0.2, 1.0, 1.5])  # count something
    text = supervisor.prometheus_dump()
    for shard_id in range(N_SHARDS):
        assert f'shard="{shard_id}"' in text
    assert 'shard="supervisor"' in text
    # TYPE headers are deduplicated across the fleet's series.
    requests_types = [
        line
        for line in text.splitlines()
        if line.startswith("# TYPE repro_serve_requests ")
    ]
    assert len(requests_types) == 1


def test_fleet_metrics_merge_is_deterministic(fleet):
    supervisor, _ = fleet
    snapshots, merged = supervisor.fleet_metrics()
    assert [shard_id for shard_id, _ in snapshots] == sorted(
        shard_id for shard_id, _ in snapshots
    )
    _, merged_again = supervisor.fleet_metrics()
    # Quiescent fleet: two in-order merges agree exactly on everything the
    # scrape itself does not perturb (the scrape adds requests).
    for name, value in merged["counters"].items():
        if name.startswith("serve.requests"):
            continue
        assert merged_again["counters"][name] >= value
    total = sum(
        snap["counters"].get("serve.predictions", 0) for _, snap in snapshots
    )
    assert merged["counters"].get("serve.predictions", 0) == total


def test_fleet_stats_aggregates_per_shard(fleet):
    supervisor, _ = fleet
    _predict(supervisor.port, [1.0, 0.5, 0.2, 1.0, 1.5])
    stats = supervisor.fleet_stats()
    assert stats["requests"] == sum(
        s["requests"] for s in stats["per_shard"].values() if s.get("ok")
    )
    assert stats["supervisor_version"] in stats["versions"]
