"""Per-layer tracing from outside the program: wrappers, spans, self time.

:func:`install` wraps each layer's public entry points where their
callers look them up, so nothing under ``src/`` changes.  Each wrapped
call records one span (name, start, end, parent span, request id) in
memory; :meth:`Tracer.dump` writes them when the run ends, and
:func:`analyse` turns a span file into per-layer totals, self times and
the indented self-time tree.

Timestamps are ``time.monotonic()``: one system-wide clock, so spans
written by the program line up with phase boundaries taken by the load
generator in another process.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: Layer span name -> the (module, attribute) pairs its callers look up.
#: ``Class.method`` patches the class; plain names patch the module global.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads.generate": (("repro.experiments.common", "generate_trace"),),
    "profiling.profile": (("repro.profiling", "profile_shard"),),
    "kernels.stack_distances": (
        ("repro.kernels.batched", "stack_distances_many_addresses"),
    ),
    "uarch.shard_stats": (("repro.uarch.simulator", "Simulator.stats_for_many"),),
    "uarch.cpi": (("repro.uarch.simulator", "Simulator.cpi_batch_from_stats"),),
    "store.write": (
        ("repro.store", "Store.put"),
        ("repro.experiments.common", "dump_artifact"),
    ),
    "core.ga": (("repro.core.genetic", "GeneticSearch.run"),),
    "core.fitness": (("repro.core.engine", "FitnessEngine.evaluate"),),
    "core.solve_gram": (
        ("repro.core.engine", "solve_gram"),
        ("repro.stream.accumulator", "solve_gram"),
    ),
    "core.fit_ols": (
        ("repro.core.engine", "fit_ols"),
        ("repro.core.model", "fit_ols"),
    ),
    "core.fit": (("repro.core.model", "InferredModel.fit"),),
    "core.predict_rows": (("repro.core.model", "InferredModel.predict_rows"),),
    "serve.read_frame": (("repro.serve.server", "read_frame"),),
    "serve.write_frame": (("repro.serve.server", "write_frame"),),
    "serve.submit": (("repro.serve.batching", "MicroBatcher.submit"),),
    "serve.publish": (("repro.serve.registry", "ModelRegistry.publish"),),
    "stream.ingest": (("repro.stream.respec", "StreamingRespecifier.ingest"),),
    "stream.refresh": (("repro.stream.respec", "StreamingRespecifier.refresh"),),
    "stream.respec": (("repro.stream.respec", "StreamingRespecifier.respec"),),
}

#: Layers each workload must hit; a traced run with zero calls fails.
_BUILD_PATH = (
    "workloads.generate", "profiling.profile", "kernels.stack_distances",
    "uarch.shard_stats", "uarch.cpi", "store.write", "core.ga",
    "core.fitness", "core.solve_gram", "core.fit_ols", "core.fit",
    "core.predict_rows",
)
_SERVE_PATH = _BUILD_PATH + (
    "serve.read_frame", "serve.write_frame", "serve.submit", "serve.publish",
)
REQUIRED = {
    "build": _BUILD_PATH,
    "serve": _SERVE_PATH,
    "maintain": _SERVE_PATH + ("stream.ingest", "stream.refresh", "stream.respec"),
}


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self):
        self.spans: List[list] = []
        self.shard_names: Dict[str, List[str]] = defaultdict(list)
        self.rows: List[int] = []
        self.eval_stats: List[Dict[str, float]] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._request_ids = itertools.count(1)

    def _open(self, name: str) -> Tuple[list, contextvars.Token]:
        record = [
            name, time.monotonic(), None, self._current.get(),
            self._request.get(), threading.get_ident(),
        ]
        self.spans.append(record)  # list.append is atomic under the GIL
        return record, self._current.set(record)

    def _close(self, record: list, token: contextvars.Token) -> None:
        record[2] = time.monotonic()
        self._current.reset(token)

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """A span-recording stand-in for ``fn``; hooks (sync functions only)
        see the arguments before the call and the result after it."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                record, token = self._open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(record, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            record, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record, token)
            if after is not None:
                after(args, result)
            return result

        return traced

    def new_request(self) -> None:
        """Tag later spans of the calling task/thread with a fresh request id."""
        self._request.set(next(self._request_ids))

    def dump(self, path) -> None:
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [name, start, end if end is not None else start,
             index.get(id(parent), -1) if parent is not None else -1,
             request, thread]
            for name, start, end, parent, request, thread in self.spans
        ]
        payload = {
            "spans": rows,
            "shards": {k: v for k, v in self.shard_names.items()},
            "rows": self.rows,
            "eval_stats": self.eval_stats,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _PrefetchedReader:
    """A stream reader whose first 4-byte read returns an already-read header."""

    def __init__(self, reader, header: bytes):
        self._reader = reader
        self._header = header

    async def readexactly(self, n: int) -> bytes:
        if self._header is not None and n == len(self._header):
            header, self._header = self._header, None
            return header
        return await self._reader.readexactly(n)


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, name = attr.split(".", 1)
        return getattr(module, cls_name), name
    return module, attr


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS`; call once per process."""
    hooks = {
        "profiling.profile": dict(
            before=lambda args: tracer.shard_names["profiling"].append(args[0].name)
        ),
        "uarch.shard_stats": dict(
            before=lambda args: tracer.shard_names["uarch"].extend(
                s.name for s in args[1]
            )
        ),
        "core.predict_rows": dict(
            before=lambda args: tracer.rows.append(len(args[1]))
        ),
        "core.ga": dict(
            after=lambda args, result: tracer.eval_stats.append(
                dict(args[0].last_eval_stats)
            )
        ),
    }
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            owner, name = _resolve(module_name, attr)
            raw = inspect.getattr_static(owner, name)
            if layer == "serve.read_frame":
                wrapped = _read_frame_wrapper(tracer, raw)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(
                    tracer.wrap(layer, raw.__func__, **hooks.get(layer, {}))
                )
            else:
                wrapped = tracer.wrap(layer, raw, **hooks.get(layer, {}))
            setattr(owner, name, wrapped)


def _read_frame_wrapper(tracer: Tracer, read_frame):
    """``read_frame`` timed from the arrival of a request's first bytes.

    The idle wait for the next request on a keep-alive connection is not
    request-path work, so the header is awaited outside the span; the
    original function then reads it back from a prefetching proxy.
    """
    from repro.serve.server import _LENGTH

    @functools.wraps(read_frame)
    async def traced_read_frame(reader):
        try:
            header = await reader.readexactly(_LENGTH.size)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        tracer.new_request()
        record, token = tracer._open("serve.read_frame")
        try:
            return await read_frame(_PrefetchedReader(reader, header))
        finally:
            tracer._close(record, token)

    return traced_read_frame


# -- analysis -------------------------------------------------------------------------


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def analyse(payload: dict, window: Tuple[float, float]) -> dict:
    """Per-layer totals, self times and the span tree of one span file.

    Inclusive totals count only the outermost span of a name, so nested
    calls of one layer (``dump_artifact`` spilling through ``Store.put``)
    are not counted twice.  Self time is a span's duration minus the union
    of its children's intervals.
    """
    spans = payload["spans"]
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)

    def path(i: int) -> str:
        names = []
        while i >= 0:
            names.append(spans[i][0])
            i = spans[i][3]
        return "/".join(reversed(names))

    def has_ancestor_named(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0}
    )
    tree: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0}
    )
    roots = []
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        duration = end - start
        child_time = _union_length(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        own = max(0.0, duration - child_time)
        entry = layers[name]
        entry["calls"] += 1
        entry["self"] += own
        if not has_ancestor_named(i, name):
            entry["total"] += duration
        node = tree[path(i)]
        node["calls"] += 1
        node["total"] += duration
        node["self"] += own
        if parent < 0:
            roots.append((max(start, window[0]), min(end, window[1])))
    wall = max(window[1] - window[0], 1e-9)
    covered = _union_length((a, b) for a, b in roots if b > a)
    return {
        "layers": dict(layers),
        "tree": dict(tree),
        "unattributed_share": 1.0 - covered / wall,
        "spans": len(spans),
    }


def format_tree(tree: Dict[str, Dict[str, float]]) -> str:
    """Indented self/child time per span path, heaviest first at each level."""
    lines = [f"{'span path':<58s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} {'child_s':>9s}"]

    def emit(prefix: str, depth: int) -> None:
        kids = [
            p for p in tree
            if p.startswith(prefix) and "/" not in p[len(prefix):]
        ]
        for p in sorted(kids, key=lambda k: -tree[k]["total"]):
            node = tree[p]
            label = "  " * depth + p.rsplit("/", 1)[-1]
            lines.append(
                f"{label:<58s} {node['calls']:>7d} {node['total']:>9.3f} "
                f"{node['self']:>9.3f} {node['total'] - node['self']:>9.3f}"
            )
            emit(p + "/", depth + 1)

    emit("", 0)
    return "\n".join(lines)


def required_missing(workload: str, layers: Dict[str, Dict[str, float]]) -> List[str]:
    """Required layers of ``workload`` that recorded no call."""
    return [
        name for name in REQUIRED[workload]
        if layers.get(name, {}).get("calls", 0) == 0
    ]


def unique_share(names: Sequence[str]) -> float:
    return len(set(names)) / len(names) if names else 0.0
