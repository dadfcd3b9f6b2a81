"""Micro-batching equivalence and queue discipline.

The central property: for ANY interleaving of request arrivals and any
batch-size/latency configuration, every micro-batched response is
bit-identical to the sequential ``predict_one`` call for the same row.
"""

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import InferredModel, ModelSpec, TransformKind
from repro.serve import BatchConfig, MicroBatcher, ModelSlot, QueueFullError
from repro.serve.bootstrap import demo_dataset

N_X = 3  # demo dataset layout: 3 software + 2 hardware variables
N_Y = 2

_MODEL = None


def served_model() -> InferredModel:
    global _MODEL
    if _MODEL is None:
        ds = demo_dataset(n_apps=3, n_per_app=25, seed=7)
        spec = ModelSpec(
            transforms={
                "x1": TransformKind.LINEAR,
                "x2": TransformKind.QUADRATIC,
                "x3": TransformKind.SPLINE,
                "y1": TransformKind.LINEAR,
                "y2": TransformKind.LINEAR,
            },
            interactions=frozenset({("x1", "y1"), ("x2", "y2")}),
        )
        _MODEL = InferredModel.fit(spec, ds)
    return _MODEL


def expected(row: np.ndarray) -> float:
    return served_model().predict_one(row[:N_X], row[N_X:])


feature = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)
row_strategy = st.lists(feature, min_size=N_X + N_Y, max_size=N_X + N_Y).map(
    lambda vals: np.asarray(vals, dtype=float)
)
# An interleaving: waves of concurrent arrivals, optionally separated by a
# pause longer than the batching tick (so ticks close between waves).
wave_strategy = st.lists(
    st.tuples(
        st.lists(row_strategy, min_size=1, max_size=6),
        st.booleans(),  # pause after this wave?
    ),
    min_size=1,
    max_size=4,
)


class TestBatchedEquivalence:
    @given(waves=wave_strategy, max_batch=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_any_interleaving_bit_identical(self, waves, max_batch):
        model = served_model()
        config = BatchConfig(max_batch=max_batch, max_latency_s=0.001)

        async def scenario():
            slot = ModelSlot(model, version=1)
            batcher = MicroBatcher(slot, config)
            batcher.start()
            try:
                tasks = []
                for rows, pause in waves:
                    tasks.extend(
                        asyncio.ensure_future(batcher.submit(row))
                        for row in rows
                    )
                    # Let the submissions actually enqueue ...
                    await asyncio.sleep(0)
                    if pause:  # ... and optionally let the tick close.
                        await asyncio.sleep(0.003)
                return await asyncio.gather(*tasks)
            finally:
                await batcher.close()

        results = asyncio.run(scenario())
        flat_rows = [row for rows, _ in waves for row in rows]
        assert len(results) == len(flat_rows)
        for row, (prediction, version) in zip(flat_rows, results):
            assert version == 1
            assert prediction == expected(row), (
                f"batched {prediction!r} != sequential {expected(row)!r} "
                f"for row {row!r}"
            )

    def test_saturated_queue_batches_fill_to_max(self):
        model = served_model()
        config = BatchConfig(max_batch=4, max_latency_s=0.001)

        async def scenario():
            slot = ModelSlot(model, version=1)
            batcher = MicroBatcher(slot, config)
            rows = [np.ones(N_X + N_Y) * (0.1 + 0.01 * i) for i in range(16)]
            tasks = [asyncio.ensure_future(batcher.submit(r)) for r in rows]
            batcher.start()
            results = await asyncio.gather(*tasks)
            await batcher.close()
            return results, batcher.stats

        results, stats = asyncio.run(scenario())
        assert stats.occupancy == {4: 4}  # 16 queued-before-start → 4 full ticks
        for (prediction, _), row in zip(
            results, [np.ones(N_X + N_Y) * (0.1 + 0.01 * i) for i in range(16)]
        ):
            assert prediction == expected(row)


class _SlowModel:
    """Records each tick's batch size; its first predict holds the event
    loop until ``arrivals`` rows were submitted from another thread."""

    def __init__(self, arrivals: int, delay: float = 0.02):
        self.arrivals = arrivals
        self.delay = delay
        self.sizes = []
        self.predicting = threading.Event()
        self.submitted = threading.Event()

    def predict_rows(self, rows):
        self.sizes.append(len(rows))
        if len(self.sizes) == 1:
            self.predicting.set()
            assert self.submitted.wait(10)
        time.sleep(self.delay)
        return rows.sum(axis=1)


def _arrivals_during_first_predict(model: _SlowModel, config: BatchConfig):
    """One request, then ``model.arrivals`` more while it is predicted."""

    async def scenario():
        loop = asyncio.get_running_loop()
        batcher = MicroBatcher(ModelSlot(model, version=1), config)
        batcher.start()
        rows = [np.full(N_X + N_Y, float(i)) for i in range(model.arrivals + 1)]

        def arrive():
            model.predicting.wait(10)
            late = [
                asyncio.run_coroutine_threadsafe(batcher.submit(row), loop)
                for row in rows[1:]
            ]
            model.submitted.set()
            return late

        arriving = loop.run_in_executor(None, arrive)
        first = await batcher.submit(rows[0])
        late = [asyncio.wrap_future(f) for f in await arriving]
        results = [first] + list(await asyncio.gather(*late))
        await batcher.close()
        return rows, results

    return asyncio.run(scenario())


class TestEarlyClose:
    def test_lone_request_does_not_wait_out_the_cap(self):
        config = BatchConfig(max_batch=64, max_latency_s=0.5)

        async def scenario():
            batcher = MicroBatcher(ModelSlot(served_model(), version=1), config)
            batcher.start()
            row = np.full(N_X + N_Y, 0.5)
            start = time.perf_counter()
            prediction, _ = await batcher.submit(row)
            elapsed = time.perf_counter() - start
            await batcher.close()
            return row, prediction, elapsed

        row, prediction, elapsed = asyncio.run(scenario())
        assert elapsed < 0.05
        assert prediction == expected(row)

    def test_requests_arriving_during_a_predict_form_the_next_tick(self):
        model = _SlowModel(arrivals=5)
        rows, results = _arrivals_during_first_predict(
            model, BatchConfig(max_batch=64, max_latency_s=0.5)
        )
        assert model.sizes == [1, 5]
        assert [p for p, _ in results] == [float(row.sum()) for row in rows]

    def test_max_batch_caps_each_tick(self):
        model = _SlowModel(arrivals=10)
        rows, results = _arrivals_during_first_predict(
            model, BatchConfig(max_batch=4, max_latency_s=0.5)
        )
        assert model.sizes == [1, 4, 4, 2]
        assert [p for p, _ in results] == [float(row.sum()) for row in rows]


class TestStageLatency:
    def test_one_predict_populates_both_histograms(self):
        was_enabled = obs.enabled()
        obs.configure(enabled=True)
        names = ("serve.queue_wait_seconds", "serve.batch_predict_seconds")

        def counts():
            histograms = obs.snapshot()["histograms"]
            return [histograms.get(name, {}).get("count", 0) for name in names]

        async def scenario():
            batcher = MicroBatcher(ModelSlot(served_model(), version=1))
            batcher.start()
            before = counts()
            await batcher.submit(np.full(N_X + N_Y, 0.5))
            after = counts()
            await batcher.close()
            return before, after

        try:
            before, after = asyncio.run(scenario())
        finally:
            obs.configure(enabled=was_enabled)
        assert [b - a for a, b in zip(before, after)] == [1, 1]


class TestQueueDiscipline:
    def test_queue_full_rejects(self):
        model = served_model()
        config = BatchConfig(max_batch=2, max_latency_s=0.01, queue_depth=4)

        async def scenario():
            slot = ModelSlot(model, version=1)
            batcher = MicroBatcher(slot, config)  # never started: queue only fills
            row = np.ones(N_X + N_Y)
            tasks = [asyncio.ensure_future(batcher.submit(row)) for _ in range(4)]
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await batcher.submit(row)
            assert batcher.stats.rejected == 1
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run(scenario())

    def test_timed_out_requests_do_not_occupy_batch_rows(self):
        model = served_model()
        config = BatchConfig(
            max_batch=8, max_latency_s=0.005, request_timeout_s=0.001
        )

        async def scenario():
            slot = ModelSlot(model, version=1)
            batcher = MicroBatcher(slot, config)
            row = np.ones(N_X + N_Y)
            # Submit without the batcher running: the waiter times out first.
            task = asyncio.ensure_future(batcher.submit(row))
            await asyncio.sleep(0.01)
            batcher.start()
            await asyncio.sleep(0.02)
            await batcher.close()
            with pytest.raises(Exception):
                task.result()
            return batcher.stats

        stats = asyncio.run(scenario())
        assert stats.timed_out == 1
        assert stats.requests == 0  # the dead request was dropped, not predicted

    def test_model_slot_rejects_non_monotonic_versions(self):
        model = served_model()
        slot = ModelSlot(model, version=3)
        with pytest.raises(ValueError, match="must increase"):
            slot.swap(3, model)
        with pytest.raises(ValueError, match="must increase"):
            slot.swap(2, model)
        slot.swap(4, model)
        assert slot.version == 4
