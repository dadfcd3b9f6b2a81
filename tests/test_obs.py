"""The observability layer: registry, spans, exporters, no-op mode.

The two ISSUE acceptance properties live here:

* **deterministic aggregation** — metrics recorded by parallel worker
  chunks and merged in input order equal the serial run's, for *any*
  split of the work (hypothesis property plus a real multiprocessing
  run through ``parallel_map``);
* **no-op mode** — with observability disabled the accessors hand out
  the shared null singletons and the instrumented kernel paths record
  nothing at all.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, parallel
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_obs():
    """Each test sees an enabled, empty process-wide registry."""
    obs.configure(enabled=True)
    obs.reset()
    yield
    obs.configure(enabled=True)
    obs.reset()


# -- registry basics -------------------------------------------------------------------


class TestInstruments:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        c = registry.counter("a")
        c.inc()
        c.inc(4)
        assert registry.counter("a") is c
        assert c.value == 5

    def test_gauge_tracks_updates(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        assert g.updates == 0
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5
        assert g.updates == 2

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 99.0):
            h.observe(value)
        # inclusive upper edges; the extra slot is the +inf bucket
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5
        assert h.max == 99.0
        assert h.mean == pytest.approx(106.0 / 5)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", bounds=(2.0, 1.0))

    def test_histogram_rejects_conflicting_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        registry.histogram("h", bounds=(1.0, 2.0))  # same bounds: fine
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_empty_histogram_snapshot_has_null_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0,))
        state = registry.snapshot()["histograms"]["h"]
        assert state["min"] is None and state["max"] is None


class TestMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.merge(b.snapshot())
        assert a.counter("c").value == 5

    def test_gauge_last_write_wins_in_merge_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(7.0)
        a.merge(b.snapshot())
        assert a.gauge("g").value == 7.0
        assert a.gauge("g").updates == 2

    def test_untouched_gauge_does_not_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g")  # created but never set
        a.merge(b.snapshot())
        assert a.gauge("g").value == 1.0

    def test_histograms_add_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        b.histogram("h", bounds=(1.0, 2.0)).observe(5.0)
        a.merge(b.snapshot())
        h = a.histogram("h")
        assert h.counts == [1, 0, 1]
        assert h.count == 2
        assert h.min == 0.5 and h.max == 5.0

    def test_histogram_bounds_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        b.histogram("h", bounds=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())


# -- spans -----------------------------------------------------------------------------


class TestSpans:
    def test_span_records_wall_and_cpu_histograms(self):
        with obs.span("unit.phase"):
            sum(range(1000))
        snapshot = obs.snapshot()["histograms"]
        assert snapshot["span.unit.phase.wall_seconds"]["count"] == 1
        assert snapshot["span.unit.phase.cpu_seconds"]["count"] == 1
        assert snapshot["span.unit.phase.wall_seconds"]["sum"] >= 0.0

    def test_context_stack_nests(self):
        assert obs.current_span() is None
        with obs.span("outer"):
            with obs.span("inner"):
                assert obs.current_stack() == ["outer", "inner"]
                assert obs.current_span() == "inner"
            assert obs.current_stack() == ["outer"]
        assert obs.current_stack() == []

    def test_span_pops_and_records_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        assert obs.current_stack() == []
        assert obs.snapshot()["histograms"]["span.failing.wall_seconds"]["count"] == 1


# -- exporters -------------------------------------------------------------------------


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        obs.counter("c").inc(3)
        obs.gauge("g").set(1.5)
        obs.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        path = obs.export_jsonl(tmp_path / "m.jsonl", run="unit")
        rows = obs.read_jsonl(path)
        by_name = {row["name"]: row for row in rows}
        assert by_name["c"]["type"] == "counter" and by_name["c"]["value"] == 3
        assert by_name["g"]["type"] == "gauge" and by_name["g"]["value"] == 1.5
        assert by_name["h"]["type"] == "histogram" and by_name["h"]["count"] == 1
        assert all(row["run"] == "unit" for row in rows)

    def test_prometheus_text_format(self):
        obs.counter("serve.requests").inc(2)
        obs.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        text = prometheus_text(obs.snapshot())
        assert "repro_serve_requests 2" in text
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_count 1" in text

    def test_prometheus_labels_attach_to_every_sample(self):
        obs.counter("serve.requests").inc(2)
        obs.gauge("g").set(1.0)
        obs.histogram("h", bounds=(1.0,)).observe(0.5)
        text = prometheus_text(obs.snapshot(), labels={"shard": "3"})
        assert 'repro_serve_requests{shard="3"} 2' in text
        assert 'repro_g{shard="3"} 1.0' in text
        assert 'repro_h_bucket{shard="3",le="1.0"} 1' in text
        assert 'repro_h_sum{shard="3"}' in text
        # TYPE headers carry no labels.
        assert "# TYPE repro_serve_requests counter" in text

    def test_prometheus_multi_series_dedupes_type_headers(self):
        from repro.obs.export import prometheus_text_multi

        shard0 = MetricsRegistry()
        shard0.counter("serve.requests").inc(4)
        shard1 = MetricsRegistry()
        shard1.counter("serve.requests").inc(6)
        shard1.counter("shard.only_here").inc(1)
        text = prometheus_text_multi(
            [
                ({"shard": "0"}, shard0.snapshot()),
                ({"shard": "1"}, shard1.snapshot()),
            ]
        )
        assert 'repro_serve_requests{shard="0"} 4' in text
        assert 'repro_serve_requests{shard="1"} 6' in text
        assert 'repro_shard_only_here{shard="1"} 1' in text
        # One TYPE declaration per metric across the whole fleet.
        assert text.count("# TYPE repro_serve_requests counter") == 1


# -- deterministic aggregation ---------------------------------------------------------

_EVENT = st.tuples(
    st.sampled_from(["counter", "gauge", "histogram"]),
    st.sampled_from(["alpha", "beta", "gamma"]),
    # quarter-integers are exact binary fractions, so per-chunk partial
    # sums add to exactly the serial total regardless of grouping
    st.integers(min_value=0, max_value=400).map(lambda n: n / 4.0),
)


def _apply(registry: MetricsRegistry, events) -> None:
    for kind, name, value in events:
        if kind == "counter":
            registry.counter(f"c.{name}").inc(int(value))
        elif kind == "gauge":
            registry.gauge(f"g.{name}").set(value)
        else:
            registry.histogram(f"h.{name}", bounds=(1.0, 10.0, 100.0)).observe(value)


class TestDeterministicAggregation:
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(_EVENT, max_size=60),
        data=st.data(),
    )
    def test_any_worker_split_merges_to_the_serial_result(self, events, data):
        """Chunked + merged-in-order == serial, for any contiguous split."""
        serial = MetricsRegistry()
        _apply(serial, events)

        # draw a random partition of the event sequence into chunks
        cut_points = data.draw(
            st.lists(
                st.integers(0, len(events)), unique=True, max_size=6
            ).map(sorted),
            label="cut_points",
        )
        edges = [0] + cut_points + [len(events)]
        merged = MetricsRegistry()
        for lo, hi in zip(edges, edges[1:]):
            worker = MetricsRegistry()  # what obs.collect() gives each job
            _apply(worker, events[lo:hi])
            merged.merge(worker.snapshot())

        assert merged.snapshot() == serial.snapshot()

    def test_collect_isolates_and_restores_the_registry(self):
        obs.counter("outer").inc()
        with obs.collect() as inner:
            obs.counter("inner").inc()
            assert obs.get_registry() is inner
            assert inner.counter("outer").value == 0  # fresh, not a copy
        assert obs.get_registry().counter("inner").value == 0
        obs.merge(inner.snapshot())
        assert obs.get_registry().counter("inner").value == 1


def _metric_job(n: int) -> int:
    """Module-level so the multiprocessing pool can pickle it."""
    obs.counter("job.calls").inc()
    obs.counter("job.units").inc(n)
    obs.histogram("job.sizes", obs.SIZE_BUCKETS).observe(n)
    return n * 2


class TestParallelCollection:
    def test_pool_metrics_match_serial(self):
        items = list(range(1, 9))

        serial_results = parallel.parallel_map(_metric_job, items, n_workers=1)
        serial = obs.snapshot()

        obs.reset()
        pool_results = parallel.parallel_map(_metric_job, items, n_workers=3)
        assert pool_results == serial_results
        assert obs.snapshot() == serial

    def test_supervised_pool_metrics_match_serial(self):
        items = list(range(1, 9))
        parallel.parallel_map(_metric_job, items, n_workers=1)
        serial = obs.snapshot()

        obs.reset()
        parallel.parallel_starmap(
            _metric_job, [(n,) for n in items], n_workers=3, supervised=True
        )
        assert obs.snapshot() == serial


# -- no-op mode ------------------------------------------------------------------------


class TestNoOpMode:
    def test_disabled_accessors_return_shared_singletons(self):
        obs.configure(enabled=False)
        assert obs.counter("x") is obs.NULL_COUNTER
        assert obs.gauge("x") is obs.NULL_GAUGE
        assert obs.histogram("x") is obs.NULL_HISTOGRAM
        assert obs.span("x") is obs.NULL_SPAN

    def test_disabled_recording_leaves_registry_empty(self):
        obs.configure(enabled=False)
        obs.counter("c").inc(5)
        obs.gauge("g").set(1.0)
        obs.histogram("h").observe(0.5)
        with obs.span("p"):
            pass
        assert obs.get_registry().instruments() == []

    def test_null_span_skips_the_context_stack(self):
        obs.configure(enabled=False)
        with obs.span("invisible"):
            assert obs.current_stack() == []

    def test_disabled_merge_is_a_no_op(self):
        worker = MetricsRegistry()
        worker.counter("c").inc(9)
        obs.configure(enabled=False)
        obs.merge(worker.snapshot())
        obs.configure(enabled=True)
        assert obs.get_registry().instruments() == []

    def test_kernel_paths_record_nothing_when_disabled(self):
        """REPRO_OBS=0 leaves the instrumented kernels instrumentation-free."""
        from repro.profiling.reuse import stack_distances
        from repro.spmv import SetAssociativeCache

        obs.configure(enabled=False)
        addrs = (np.arange(256) % 32) * 64
        SetAssociativeCache(4096, 64, 4, "LRU").simulate(addrs)
        stack_distances(addrs)
        assert obs.get_registry().instruments() == []

    def test_kernel_paths_record_when_enabled(self):
        from repro.profiling.reuse import stack_distances
        from repro.spmv import SetAssociativeCache

        addrs = (np.arange(256) % 32) * 64
        SetAssociativeCache(4096, 64, 4, "LRU").simulate(addrs)
        stack_distances(addrs)
        counters = obs.snapshot()["counters"]
        assert counters["kernel.cache_accesses"] == 256
        assert counters["kernel.stack_accesses"] == 256
        histograms = obs.snapshot()["histograms"]
        assert histograms["span.kernel.cache_sim.wall_seconds"]["count"] == 1
        assert histograms["span.kernel.stack_distances.wall_seconds"]["count"] == 1
