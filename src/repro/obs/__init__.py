"""``repro.obs`` — stdlib-only observability for the whole pipeline.

The paper's methodology is an always-on loop (profile, re-specify via
genetic search, redeploy); this package is how the loop watches itself:

* a process-wide :class:`~repro.obs.registry.MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms (lock-free; explicit
  in-order merge aggregates worker-process snapshots deterministically —
  see :func:`collect` and :func:`repro.parallel.parallel_map`);
* lightweight trace :func:`span`\\ s recording wall/CPU time per phase
  into histograms, with a per-thread context stack;
* exporters: JSONL files under ``reports/`` for the CI regression gate
  (``scripts/check_bench.py``) and a Prometheus-style text dump served by
  the prediction server's ``metrics`` op.

Everything funnels through the module-level accessors below so call sites
stay one-liners::

    from repro import obs

    obs.counter("engine.gram_fits").inc()
    obs.gauge("serve.queue_depth").set(len(queue))
    with obs.span("ga.generation"):
        ...

Disabling: ``REPRO_OBS=0`` in the environment (read at import), or
:func:`configure` at runtime.  Disabled accessors hand out shared no-op
singletons (``NULL_COUNTER`` etc.), so instrumented hot paths degrade to
a few empty method calls — benchmarked at <2% on the GA smoke benchmark
even when *enabled*, and instrumentation-free when disabled
(``tests/test_obs.py`` asserts the no-op identities).
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional, Sequence

from repro.obs.export import (
    default_report_dir,
    prometheus_text,
    prometheus_text_multi,
    read_jsonl,
    snapshot_to_jsonl,
    write_jsonl,
)
from repro.obs.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    SECONDS_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, current_span, current_stack

OBS_ENV = "REPRO_OBS"

_enabled = os.environ.get(OBS_ENV, "1").strip() != "0"
_registry = MetricsRegistry()


def enabled() -> bool:
    """Is observability collecting right now?"""
    return _enabled


def configure(enabled: Optional[bool] = None) -> None:
    """Turn collection on/off at runtime (tests, overhead benchmarks).

    Instrument handles are resolved through the accessors below at call
    time, except where call sites cache them (documented per site); cached
    handles keep the mode they were created under.
    """
    global _enabled
    if enabled is not None:
        _enabled = bool(enabled)


def get_registry() -> MetricsRegistry:
    """The live process-wide registry (even when collection is disabled)."""
    return _registry


def reset() -> None:
    """Clear every instrument in the process-wide registry."""
    _registry.reset()


def counter(name: str) -> Counter:
    return _registry.counter(name) if _enabled else NULL_COUNTER


def gauge(name: str) -> Gauge:
    return _registry.gauge(name) if _enabled else NULL_GAUGE


def histogram(name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
    return _registry.histogram(name, bounds) if _enabled else NULL_HISTOGRAM


def span(name: str) -> Span:
    """A context manager timing one phase (no-op singleton when disabled)."""
    return Span(name, _registry) if _enabled else NULL_SPAN


def snapshot() -> dict:
    """JSON-serializable state of the process-wide registry."""
    return _registry.snapshot()


def merge(snapshot_dict: dict) -> None:
    """Fold a worker snapshot into the process-wide registry."""
    if _enabled:
        _registry.merge(snapshot_dict)


@contextlib.contextmanager
def collect() -> Iterator[MetricsRegistry]:
    """Record into a *fresh* registry for the duration of the block.

    The worker-process half of deterministic aggregation: everything the
    block records lands in an isolated registry (the yielded object) whose
    snapshot the caller ships back for in-order merging — crucially *not*
    polluted by counts inherited from the parent process under fork.  The
    process-wide registry is restored on exit.
    """
    global _registry
    previous = _registry
    fresh = MetricsRegistry()
    _registry = fresh
    try:
        yield fresh
    finally:
        _registry = previous


def export_jsonl(path, run: str, append: bool = False):
    """Write the live registry's snapshot as JSONL to ``path``."""
    return write_jsonl(snapshot(), path, run, append=append)


def prometheus_dump(labels: Optional[dict] = None) -> str:
    """The live registry in Prometheus text exposition format.

    ``labels`` (e.g. ``{"shard": "3"}``) are attached to every sample.
    """
    return prometheus_text(snapshot(), labels=labels)


__all__ = [
    "OBS_ENV",
    "SECONDS_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "collect",
    "configure",
    "counter",
    "current_span",
    "current_stack",
    "default_report_dir",
    "enabled",
    "export_jsonl",
    "gauge",
    "get_registry",
    "histogram",
    "merge",
    "prometheus_dump",
    "prometheus_text",
    "prometheus_text_multi",
    "read_jsonl",
    "reset",
    "snapshot",
    "snapshot_to_jsonl",
    "span",
    "write_jsonl",
]
