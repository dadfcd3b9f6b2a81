"""End-to-end: real sockets, framing, ops, backpressure, error statuses."""

import json
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    NO_RETRY,
    BatchConfig,
    ModelSlot,
    PredictionServer,
    ServeClient,
    ServeError,
    ServerThread,
)
from repro.serve.bootstrap import build_service, demo_dataset

N_VARS = 5


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    server, serving, registry = build_service(
        demo_dataset(seed=0),
        tmp_path_factory.mktemp("registry"),
        generations=1,
        population_size=6,
        batch_config=BatchConfig(max_batch=32, max_latency_s=0.001),
    )
    with ServerThread(server) as thread:
        yield thread, server, serving, registry
    serving.close()


@pytest.fixture()
def client(service):
    thread, *_ = service
    with ServeClient(port=thread.port) as c:
        yield c


class TestOps:
    def test_ping(self, client):
        assert client.ping()

    def test_info(self, client):
        info = client.info()
        assert info["model_version"] >= 1
        assert info["variables"] == ["x1", "x2", "x3", "y1", "y2"]
        assert info["response"] == "log"

    def test_predict_roundtrip_bit_identical(self, service, client):
        _, server, *_ = service
        version, model = server.slot.get()
        row = [1.0, 0.5, 0.2, 1.0, 1.5]
        reply = client.predict_row(row)
        assert reply["model_version"] == version
        assert reply["prediction"] == model.predict_one(row[:3], row[3:])

    def test_predict_xy_form(self, service, client):
        _, server, *_ = service
        _, model = server.slot.get()
        reply = client.predict([1.0, 0.5, 0.2], [1.0, 1.5])
        assert reply["prediction"] == model.predict_one(
            [1.0, 0.5, 0.2], [1.0, 1.5]
        )

    def test_predict_batch_matches_singles(self, client):
        rows = np.abs(np.random.default_rng(3).normal(1, 0.3, size=(10, N_VARS)))
        batch = client.predict_batch(rows)["predictions"]
        singles = [client.predict_row(r.tolist())["prediction"] for r in rows]
        assert batch == singles

    def test_predict_batch_reply_bytes_unchanged(self, service):
        # ``tolist()`` yields the same Python floats as a per-element
        # ``float()``, so the JSON reply is byte-identical.
        _, server, *_ = service
        version, model = server.slot.get()
        rows = np.random.default_rng(4).normal(1, 2.0, size=(300, N_VARS))
        reply = server._op_predict_batch({"op": "predict_batch", "rows": rows.tolist()})
        per_element = {
            "ok": True,
            "predictions": [float(p) for p in model.predict_rows(rows)],
            "model_version": version,
        }
        def encode(payload):
            return json.dumps(payload, separators=(",", ":"))

        assert encode(reply) == encode(per_element)
        awkward = np.array([0.0, -0.0, 5e-324, 1e308, -1.5, 1 / 3, 2.0**-1074, 123456789.0])
        assert encode(awkward.tolist()) == encode([float(v) for v in awkward])

    def test_metrics_export_stage_latency(self, client):
        client.predict_row([1.0] * N_VARS)
        histograms = client.metrics()["histograms"]
        text = client.metrics_prometheus()
        for name in ("serve.queue_wait_seconds", "serve.batch_predict_seconds"):
            assert histograms[name]["count"] >= 1
            assert f"repro_{name.replace('.', '_')}_count" in text

    def test_stats_exposes_batching(self, client):
        client.predict_row([1.0] * N_VARS)
        stats = client.stats()
        assert stats["predictions"] >= 1
        assert "occupancy_histogram" in stats["batching"]
        assert stats["model_version"] >= 1
        assert "updates" in stats  # manager is attached


class TestErrors:
    def test_unknown_op_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.request({"op": "frobnicate"})
        assert exc.value.status == 404

    def test_wrong_arity_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.predict_row([1.0, 2.0])
        assert exc.value.status == 400

    def test_non_finite_rejected_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.predict_row([float("nan")] * N_VARS)
        assert exc.value.status == 400

    def test_missing_fields_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.request({"op": "predict"})
        assert exc.value.status == 400

    def test_bad_observe_without_profiles_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.request({"op": "observe", "application": "a", "profiles": []})
        assert exc.value.status == 400


class _SlowModel:
    """Holds the event loop for ``delay`` seconds in every predict."""

    variable_names = tuple(f"v{i}" for i in range(N_VARS))

    def __init__(self, delay: float):
        self.delay = delay
        self.predicting = threading.Event()

    def predict_rows(self, rows):
        self.predicting.set()
        time.sleep(self.delay)
        return np.ones(len(rows))


class TestBackpressure:
    def test_queue_full_is_429(self):
        # A tick that predicts slowly: the requests read after it queue for
        # the next tick, and with room for two the third is shed with 429.
        model = _SlowModel(delay=0.5)
        server = PredictionServer(
            ModelSlot(model, version=1),
            batch_config=BatchConfig(
                max_batch=1, queue_depth=2, request_timeout_s=30.0
            ),
        )
        with ServerThread(server) as thread:
            clients = [
                ServeClient(port=thread.port, retry=NO_RETRY) for _ in range(4)
            ]
            for c in clients:
                assert c.ping()  # every connection accepted before the stall
            replies = []

            def fire(c):
                try:
                    replies.append(c.predict_row([1.0] * N_VARS)["ok"])
                except (ServeError, ConnectionError, OSError):
                    replies.append(False)

            threads = [
                threading.Thread(target=fire, args=(c,), daemon=True)
                for c in clients[:3]
            ]
            threads[0].start()
            assert model.predicting.wait(10)
            # Arrive in order while the first tick predicts: two fill the
            # queue, the probe finds it full.
            for t in threads[1:]:
                t.start()
                time.sleep(0.05)
            with pytest.raises(ServeError) as exc:
                clients[3].predict_row([1.0] * N_VARS)
            assert exc.value.status == 429
            for t in threads:
                t.join(10)
            assert replies == [True, True, True]
        for c in clients:
            c.close()

    def test_shutdown_op_stops_server(self, tmp_path):
        server, serving, _ = build_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            generations=1,
            population_size=6,
        )
        thread = ServerThread(server).start()
        client = ServeClient(port=thread.port)
        assert client.shutdown()["ok"]
        client.close()
        thread._done.wait(10)
        assert thread._done.is_set()
        serving.close()
