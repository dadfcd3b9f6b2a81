"""Live-update swap safety.

Requests issued during a model update must never observe a half-published
model: every response is produced by exactly the (version, model) pair it
reports — old or new, nothing in between — and published versions increase
monotonically with zero failed requests across the swap.
"""

import asyncio

import numpy as np
import pytest

from repro.core import InferredModel, ModelSpec, TransformKind
from repro.serve import (
    BatchConfig,
    MicroBatcher,
    ModelKey,
    ModelSlot,
)
from repro.serve.bootstrap import build_service, demo_dataset, outlier_profiles
from repro.stream import StreamingRespecifier

N_VARS = 5


def _fit_variant(seed: int, kind: TransformKind) -> InferredModel:
    ds = demo_dataset(n_apps=3, n_per_app=25, seed=seed)
    spec = ModelSpec(
        transforms={
            "x1": kind,
            "x2": TransformKind.LINEAR,
            "x3": TransformKind.LINEAR,
            "y1": TransformKind.LINEAR,
            "y2": TransformKind.LINEAR,
        },
        interactions=frozenset({("x1", "y1")}),
    )
    return InferredModel.fit(spec, ds)


class TestSlotSwapDuringTraffic:
    def test_every_response_consistent_with_its_version(self):
        """Hammer the batcher while the slot swaps v1→v2→v3 mid-stream."""
        models = {
            1: _fit_variant(1, TransformKind.LINEAR),
            2: _fit_variant(2, TransformKind.QUADRATIC),
            3: _fit_variant(3, TransformKind.SPLINE),
        }
        rng = np.random.default_rng(5)
        rows = rng.normal(loc=0.5, scale=1.0, size=(400, N_VARS))
        # Expected per (version, row): the sequential single-row answer.
        expected = {
            v: [m.predict_one(r[:3], r[3:]) for r in rows]
            for v, m in models.items()
        }

        async def scenario():
            slot = ModelSlot(models[1], version=1)
            batcher = MicroBatcher(
                slot, BatchConfig(max_batch=16, max_latency_s=0.0005)
            )
            batcher.start()
            completions = []

            async def caller(i):
                prediction, version = await batcher.submit(rows[i])
                completions.append(
                    (asyncio.get_running_loop().time(), i, prediction, version)
                )

            async def swapper():
                # Swap on completion counts, not wall time, so the updates
                # reliably land in the middle of the request stream.
                while len(completions) < 100:
                    await asyncio.sleep(0.0005)
                slot.swap(2, models[2])
                while len(completions) < 250:
                    await asyncio.sleep(0.0005)
                slot.swap(3, models[3])

            tasks = [asyncio.ensure_future(swapper())]
            for i in range(len(rows)):
                tasks.append(asyncio.ensure_future(caller(i)))
                if i % 25 == 0:
                    await asyncio.sleep(0.001)
            await asyncio.gather(*tasks)
            await batcher.close()
            return completions

        completions = asyncio.run(scenario())
        assert len(completions) == len(rows)  # zero dropped requests

        versions_seen = set()
        for _, i, prediction, version in completions:
            versions_seen.add(version)
            assert prediction == expected[version][i], (
                f"row {i} served by v{version} does not match that "
                f"version's sequential prediction — torn snapshot?"
            )
        assert versions_seen <= {1, 2, 3}
        # The swap actually happened under traffic.
        assert 3 in versions_seen and len(versions_seen) >= 2

        # Monotonic: in completion-time order, versions never go backwards.
        ordered = [v for t, _, _, v in sorted(completions)]
        assert all(a <= b for a, b in zip(ordered, ordered[1:]))


def _frame(application, records):
    return {
        "application": application,
        "profiles": [{"x": r.x.tolist(), "y": r.y.tolist(), "z": r.z} for r in records],
    }


def _triggers(registry):
    key = ModelKey("demo", "suite")
    return [registry.entry_metadata(key, v)["trigger"] for v in registry.versions(key)]


class TestServingManagerUpdate:
    """The paper's §3.3 update policy, run against the serving path: the
    default drift gate of :func:`build_service`, ``DriftConfig()``, waits
    for 10 profiles, then re-specifies once their error exceeds 1.5x the
    steady-state (bootstrap) error."""

    @staticmethod
    def _service(tmp_path):
        return build_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            generations=1,
            update_generations=1,
            population_size=6,
        )

    def test_accurate_application_absorbed_without_update(self, tmp_path):
        server, serving, registry = self._service(tmp_path)
        # Profiles of an application the model already covers: the first
        # 10 app0 rows of its own training set, so in-sample errors.
        ds = demo_dataset(n_apps=1, n_per_app=10, seed=0)

        async def scenario():
            return await serving.handle_observe(_frame("app0", ds.records))

        reply = asyncio.run(scenario())
        serving.close()
        assert reply["ok"] and not reply["drift_tripped"]
        assert not reply["respec_scheduled"]
        assert serving.stats.updates_started == 0
        assert serving.stream.records_ingested == 10
        assert "stream-respec" not in _triggers(registry)

    def test_outlier_waits_for_more_profiles(self, tmp_path):
        server, serving, registry = self._service(tmp_path)
        outliers = outlier_profiles("newapp", n=9)

        async def scenario():
            return await serving.handle_observe(_frame("newapp", outliers))

        reply = asyncio.run(scenario())
        serving.close()
        # Far outside the tolerance band, but one profile short of the
        # evidence the policy wants: no verdict yet.
        assert reply["ok"] and reply["batch_error"] > 1.5 * serving.stream.detector.baseline
        assert not reply["drift_tripped"] and not reply["respec_scheduled"]
        assert "stream-respec" not in _triggers(registry)

    def test_malformed_profile_rejected_before_ingest(self, tmp_path):
        """A frame with a record of the wrong width is refused whole, so
        nothing of it is ingested and later frames of the application
        still are."""
        server, serving, registry = self._service(tmp_path)
        good = demo_dataset(n_apps=1, n_per_app=3, seed=0).records
        frame = _frame("app0", good)
        frame["profiles"][1]["x"] = [1.0]

        async def scenario():
            with pytest.raises(ValueError):
                await serving.handle_observe(frame)
            assert serving.stream.records_ingested == 0
            return await serving.handle_observe(_frame("app0", good))

        reply = asyncio.run(scenario())
        serving.close()
        assert reply["ok"] and serving.stream.records_ingested == 3

    def test_observe_without_profiles_rejected(self, tmp_path):
        """An observation of no profiles is refused: nothing is ingested
        and no update starts."""
        server, serving, registry = self._service(tmp_path)

        async def scenario():
            with pytest.raises(ValueError):
                await serving.handle_observe(_frame("app0", []))

        asyncio.run(scenario())
        serving.close()
        assert serving.stream.records_ingested == 0
        assert serving.stream.batches_ingested == 0
        assert serving.stats.updates_started == 0

    def test_unbootstrapped_respecifier_not_attached(self, tmp_path):
        """A respecifier with no model yet cannot take over the observe
        path; the bootstrapped one stays attached."""
        server, serving, registry = self._service(tmp_path)
        attached = serving.stream
        with pytest.raises(RuntimeError):
            serving.attach_stream(StreamingRespecifier(demo_dataset(seed=0)))
        serving.close()
        assert serving.stream is attached

    def test_observe_triggers_background_update_and_publish(self, tmp_path):
        server, serving, registry = self._service(tmp_path)
        outliers = outlier_profiles("newapp", n=10)
        key = ModelKey("demo", "suite")

        async def scenario():
            first = await serving.handle_observe(_frame("newapp", outliers[:5]))
            assert first["ok"] and not first["respec_scheduled"]
            reply = await serving.handle_observe(_frame("newapp", outliers[5:]))
            assert reply["ok"] and reply["drift_tripped"]
            assert reply["respec_scheduled"]
            await serving.wait_for_update()

        asyncio.run(scenario())
        serving.close()

        assert _triggers(registry).count("stream-respec") == 1
        assert _triggers(registry)[-1] == "stream-respec"
        assert serving.stats.updates_started == 1
        assert serving.stats.updates_failed == 0
        assert serving.stats_dict()["stream"]["respecs"] == 1
        # Registry's latest is exactly the live model.
        published, version = registry.load(key)
        assert version == serving.slot.version
        probe = np.full((1, N_VARS), 0.8)
        assert (
            published.predict_rows(probe) == serving.slot.get()[1].predict_rows(probe)
        ).all()
