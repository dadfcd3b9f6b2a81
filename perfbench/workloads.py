"""The three workloads: orchestration, output checks, and metrics.

Each workload returns an :class:`Outcome`: every end-to-end metric in an
untraced run, or every per-layer metric in a traced one.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import config, inputs, loadgen, tracing
from perfbench.host import Program, ProgramError, cpu_seconds, own_cpu_seconds, program_env
from repro.serve.client import ServeError
from repro.serve.registry import ModelKey, ModelRegistry

MODEL_KEY = ModelKey("perfbench", "general")
READY_TIMEOUT = 90.0
BUILD_TIMEOUT = 150.0


@dataclasses.dataclass
class Context:
    root: Path      # checkout root (holds src/ and perfbench/)
    work: Path      # this run's scratch directory
    seed: int
    seconds: int
    trace: bool
    programs: List[Program] = dataclasses.field(default_factory=list)

    def launch(self, argv: List[str], work: Path) -> Program:
        """Start a program process; :func:`run` stops every one at exit."""
        program = Program(argv, program_env(self.root, work), work / "program.log")
        self.programs.append(program)
        return program

    def subdir(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True, exist_ok=True)
        return path


@dataclasses.dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    problems: List[str]
    counts: Dict[str, object]     # must repeat exactly per seed
    report: str = ""              # human-readable extra output (span tree)
    details: Dict[str, object] = dataclasses.field(default_factory=dict)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


# -- per-layer metric table ------------------------------------------------------------

#: Every per-layer metric, in print order, with its unit.  A traced run
#: prints all of them; a layer a workload does not exercise reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "workloads.generate_s": "s", "workloads.generate_calls": "count",
    "profiling.profile_s": "s", "profiling.profile_calls": "count",
    "profiling.unique_share": "fraction",
    "kernels.stack_distances_s": "s", "kernels.stack_distances_calls": "count",
    "uarch.shard_stats_self_s": "s", "uarch.shard_stats_calls": "count",
    "uarch.shards_computed": "count", "uarch.unique_share": "fraction",
    "uarch.cpi_s": "s", "uarch.cpi_calls": "count",
    "store.write_s": "s", "store.write_calls": "count",
    "core.ga_s": "s", "core.ga_calls": "count",
    "core.fitness_s": "s", "core.fitness_calls": "count",
    "core.solve_gram_s": "s", "core.solve_gram_calls": "count",
    "core.fit_ols_s": "s", "core.fit_ols_calls": "count",
    "core.gram_fits": "count", "core.lstsq_fallbacks": "count",
    "core.gram_share": "fraction",
    "core.memo_hit_rate": "fraction", "core.column_hit_rate": "fraction",
    "core.fit_s": "s", "core.fit_calls": "count",
    "core.predict_rows_us": "us", "core.predict_rows_calls": "count",
    "serve.batch_rows": "rows",
    "serve.read_frame_us": "us", "serve.read_frame_calls": "count",
    "serve.write_frame_us": "us", "serve.write_frame_calls": "count",
    "serve.submit_us": "us", "serve.submit_calls": "count",
    "serve.publish_ms": "ms", "serve.publish_calls": "count",
    "serve.cpu_us_per_request": "us",
    "serve.observe_wait_ms": "ms",
    "serve.max_rate_rps": "1/s",
    "serve.predict_p95_ms": "ms", "serve.predict_p99_ms": "ms",
    "loadgen.cpu_us_per_request": "us", "loadgen.lateness_p99_ms": "ms",
    "stream.ingest_us": "us", "stream.ingest_calls": "count",
    "stream.refresh_us": "us", "stream.refreshes": "count",
    "stream.respec_s": "s", "stream.respecs": "count",
    "stream.observe_p50_ms": "ms", "stream.observe_p95_ms": "ms",
    "stream.respec_served_s": "s",
    "trace.unattributed_share": "fraction", "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}


def layer_metrics(payload: dict, window: Tuple[float, float]) -> Tuple[Dict[str, float], dict]:
    """Per-layer numbers of one traced program's span file."""
    analysis = tracing.analyse(payload, window)
    layers = analysis["layers"]

    def total(name: str) -> float:
        return layers.get(name, {}).get("total", 0.0)

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    def per_call(name: str, scale: float) -> float:
        return total(name) / calls(name) * scale if calls(name) else 0.0

    stats = payload["eval_stats"]
    gram = sum(s.get("gram_fits", 0) for s in stats)
    fallbacks = sum(s.get("lstsq_fallbacks", 0) for s in stats)
    scored = sum(s.get("candidates_scored", 0) for s in stats)
    hits = sum(s.get("memo_hits", 0) for s in stats)
    col_hits = sum(s.get("column_hits", 0) for s in stats)
    col_all = col_hits + sum(s.get("column_builds", 0) for s in stats)
    shards = payload["shards"]
    values = {
        "workloads.generate_s": total("workloads.generate"),
        "workloads.generate_calls": calls("workloads.generate"),
        "profiling.profile_s": total("profiling.profile"),
        "profiling.profile_calls": calls("profiling.profile"),
        "profiling.unique_share": tracing.unique_share(shards.get("profiling", [])),
        "kernels.stack_distances_s": total("kernels.stack_distances"),
        "kernels.stack_distances_calls": calls("kernels.stack_distances"),
        "uarch.shard_stats_self_s": layers.get("uarch.shard_stats", {}).get("self", 0.0),
        "uarch.shard_stats_calls": calls("uarch.shard_stats"),
        "uarch.shards_computed": len(shards.get("uarch", [])),
        "uarch.unique_share": tracing.unique_share(shards.get("uarch", [])),
        "uarch.cpi_s": total("uarch.cpi"),
        "uarch.cpi_calls": calls("uarch.cpi"),
        "store.write_s": total("store.write"),
        "store.write_calls": calls("store.write"),
        "core.ga_s": total("core.ga"),
        "core.ga_calls": calls("core.ga"),
        "core.fitness_s": total("core.fitness"),
        "core.fitness_calls": calls("core.fitness"),
        "core.solve_gram_s": total("core.solve_gram"),
        "core.solve_gram_calls": calls("core.solve_gram"),
        "core.fit_ols_s": total("core.fit_ols"),
        "core.fit_ols_calls": calls("core.fit_ols"),
        "core.gram_fits": gram,
        "core.lstsq_fallbacks": fallbacks,
        "core.gram_share": gram / (gram + fallbacks) if gram + fallbacks else 0.0,
        "core.memo_hit_rate": hits / scored if scored else 0.0,
        "core.column_hit_rate": col_hits / col_all if col_all else 0.0,
        "core.fit_s": total("core.fit"),
        "core.fit_calls": calls("core.fit"),
        "core.predict_rows_us": per_call("core.predict_rows", 1e6),
        "core.predict_rows_calls": calls("core.predict_rows"),
        "serve.batch_rows": float(np.mean(payload["rows"])) if payload["rows"] else 0.0,
        "serve.read_frame_us": per_call("serve.read_frame", 1e6),
        "serve.read_frame_calls": calls("serve.read_frame"),
        "serve.write_frame_us": per_call("serve.write_frame", 1e6),
        "serve.write_frame_calls": calls("serve.write_frame"),
        "serve.submit_us": per_call("serve.submit", 1e6),
        "serve.submit_calls": calls("serve.submit"),
        "serve.publish_ms": per_call("serve.publish", 1e3),
        "serve.publish_calls": calls("serve.publish"),
        "stream.ingest_us": per_call("stream.ingest", 1e6),
        "stream.ingest_calls": calls("stream.ingest"),
        "stream.refresh_us": per_call("stream.refresh", 1e6),
        "stream.refreshes": calls("stream.refresh"),
        "stream.respec_s": per_call("stream.respec", 1.0),
        "stream.respecs": calls("stream.respec"),
        "trace.unattributed_share": analysis["unattributed_share"],
        "trace.spans": analysis["spans"],
    }
    return values, analysis


def per_layer_outcome(
    workload: str,
    values: Dict[str, float],
    analysis: dict,
    attempted: int,
    failed: int,
    problems: List[str],
    counts: Dict[str, object],
) -> Outcome:
    missing = tracing.required_missing(workload, analysis["layers"])
    if missing:
        problems.append(f"traced run recorded no calls of: {', '.join(missing)}")
        failed += 1
    metrics = {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }
    return Outcome(metrics, attempted, failed, problems, counts,
                   tracing.format_tree(analysis["tree"]))


# -- build ------------------------------------------------------------------------------


def _launch_build(ctx: Context, name: str, setup_only: bool = False,
                  traced: bool = False) -> Program:
    work = ctx.subdir(name)
    argv = [str(ctx.root / "perfbench" / "program.py"), "build",
            "--seed", str(ctx.seed), "--work", str(work)]
    if setup_only:
        argv.append("--setup-only")
    if traced:
        argv += ["--trace", "1", "--spans", str(work / "spans.json")]
    return ctx.launch(argv, work)


def _one_build(ctx: Context, name: str, traced: bool = False):
    """Set-up seconds, build result, and peak RSS of one cold build process."""
    program = _launch_build(ctx, name, traced=traced)
    try:
        ready = program.read_message("READY", READY_TIMEOUT)
        result = program.read_message("RESULT", BUILD_TIMEOUT)
        rss = program.finish()
    finally:
        program.kill()
    return ready["_at"] - program.started, result, rss


def _setup_only_build(ctx: Context, name: str) -> float:
    """Set-up seconds of a build process that stops once it is ready."""
    program = _launch_build(ctx, name, setup_only=True)
    try:
        ready = program.read_message("READY", READY_TIMEOUT)
        program.finish()
    finally:
        program.kill()
    return ready["_at"] - program.started


def _build_signature(result: dict) -> dict:
    """What must repeat exactly for a given seed."""
    stats = result["eval_stats"]
    return {
        "digest": result["digest"],
        "val_median_error": result["val_median_error"],
        "best": result["best"],
        "n_train": result["n_train"],
        "n_val": result["n_val"],
        "gram_fits": stats["gram_fits"],
        "lstsq_fallbacks": stats["lstsq_fallbacks"],
        "memo_hits": stats["memo_hits"],
    }


def _check_builds(results: List[dict], problems: List[str]) -> int:
    """Number of builds that disagree with the first or fail their own check."""
    reference = _build_signature(results[0])
    failed = 0
    for i, result in enumerate(results):
        bad = []
        if _build_signature(result) != reference:
            bad.append("differs from build 0")
        if not result["predict_rows_consistent"]:
            bad.append("predict_rows disagrees with predict")
        if not (result["n_train"] == 980 and result["n_val"] == 140):
            bad.append(f"dataset sizes {result['n_train']}/{result['n_val']}")
        if bad:
            failed += 1
            problems.append(f"build {i}: " + "; ".join(bad))
    return failed


def run_build(ctx: Context) -> Outcome:
    problems: List[str] = []
    if ctx.trace:
        _, reference, _ = _one_build(ctx, "build0")
        _, result, _ = _one_build(ctx, "build1", traced=True)
        failed = _check_builds([reference, result], problems)
        payload = json.loads((ctx.work / "build1" / "spans.json").read_text())
        values, analysis = layer_metrics(payload, tuple(result["window"]))
        values["trace.overhead_frac"] = result["build_s"] / reference["build_s"] - 1.0
        counts = {"build": _build_signature(result),
                  "shards_computed": values["uarch.shards_computed"],
                  "fit_ols_calls": values["core.fit_ols_calls"]}
        return per_layer_outcome("build", values, analysis, 2, failed, problems, counts)

    _, rows_list = _traffic(ctx)
    setups, results, peaks = [], [], []
    timed = 0.0
    # Set-up-only launches between the builds and after the serving phase
    # spread the set-up samples over the whole run.
    while len(results) < config.MIN_BUILDS or timed < ctx.seconds:
        if results:
            setups.append(_setup_only_build(ctx, f"setup{len(results)}"))
        setup_s, result, rss = _one_build(ctx, f"build{len(results)}")
        setups.append(setup_s)
        results.append(result)
        peaks.append(rss)
        timed += result["build_s"]
    failed = _check_builds(results, problems)
    # The built model's user: the serving tier, over the last build's registry.
    server = Server(ctx, 0, model_from=ctx.work / f"build{len(results) - 1}")
    try:
        phase = _serve_phase(
            ctx, server, rows_list,
            [("batch", 0), ("rung", config.NOMINAL_RATE), ("batch", 0)],
        )
    finally:
        server.stop()
    setups.append(_setup_only_build(ctx, "setup0"))
    if phase["failed"]:
        problems.append(f"{phase['failed']} predict replies failed or mismatched")
    failed += phase["failed"]
    attempted = len(results) + phase["attempted"]
    metrics = {
        "setup_s": (median(setups), "s"),
        "build_s": (min(r["build_s"] for r in results), "s"),
        "val_median_error": (results[0]["val_median_error"], "fraction"),
        "peak_rss_mb": (median(peaks), "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "predict_p50_ms": (phase["latency_ms"]["p50"], "ms"),
        "score_rows_per_s": (phase["score_rows_per_s"], "1/s"),
    }
    return Outcome(metrics, attempted, failed, problems,
                   {"build": _build_signature(results[0])},
                   details={"setup_s": setups, "build_s": [r["build_s"] for r in results],
                            "latency_ms": phase["latency_ms"],
                            "score_windows": phase["score_windows"]})


# -- servers ------------------------------------------------------------------------


class Server:
    """One launched server process and the registry it publishes to."""

    def __init__(self, ctx: Context, index: int, stream: bool = False,
                 traced: bool = False, calibration: Optional[Path] = None,
                 model_from: Optional[Path] = None):
        """``model_from``: serve the model a build published in that work
        directory, instead of building the small model in set-up."""
        self.work = model_from or ctx.subdir(f"server{index}")
        self.spans = self.work / "spans.json"
        argv = [str(ctx.root / "perfbench" / "program.py"),
                "serve-model" if model_from else "server",
                "--seed", str(config.SERVICE_SEED), "--work", str(self.work)]
        if stream:
            argv += ["--stream", "--calibration", str(calibration)]
        if traced:
            argv += ["--trace", "1", "--spans", str(self.spans)]
        self.program = ctx.launch(argv, self.work)
        try:
            ready = self.program.read_message("READY", READY_TIMEOUT)
        except ProgramError:
            self.program.kill()
            raise
        # Set-up leaves out the program's untimed BLAS warm-up.
        self.setup_s = ready["_at"] - self.program.started - ready.get("warm_s", 0.0)
        self.build_s = ready.get("build_s")
        self.port = ready["port"]
        self._registry: Optional[ModelRegistry] = None

    @property
    def registry(self) -> ModelRegistry:
        if self._registry is None:
            # recover=False: the server is a live publisher in this directory.
            self._registry = ModelRegistry(self.work / "registry", cache_size=64,
                                           recover=False)
        return self._registry

    def model(self, version: int):
        return self.registry.load(MODEL_KEY, version)[0]

    def cpu(self) -> float:
        return cpu_seconds(self.program.pid)

    def stop(self) -> float:
        """Shut the server down; returns its peak RSS in MiB."""
        try:
            with loadgen.connect(self.port) as client:
                client.shutdown()
            return self.program.finish()
        finally:
            self.program.kill()


def _warm_phase(client) -> None:
    """Untimed BLAS warm-up in the server, before a timed phase."""
    client.request({"op": "bench_warmup"})


def _check_replies(server: Server, replies: List[loadgen.Reply], rows: np.ndarray,
                   batch_rows: int = 0) -> int:
    """Replies that failed, or differ from ``predict_rows`` of the version
    they name as loaded from the registry, bit for bit."""
    bad = sum(1 for r in replies if not r.ok)
    by_version: Dict[int, List[loadgen.Reply]] = {}
    for reply in replies:
        if reply.ok:
            by_version.setdefault(reply.version, []).append(reply)
    for version, group in by_version.items():
        model = server.model(version)
        if batch_rows:
            for reply in group:
                expected = model.predict_rows(rows[reply.index:reply.index + batch_rows])
                if not np.array_equal(np.asarray(reply.value, dtype=float), expected):
                    bad += 1
        else:
            expected = model.predict_rows(rows[[r.index for r in group]])
            got = np.array([r.value for r in group], dtype=float)
            bad += int(np.count_nonzero(got != expected))
    return bad


def _latency_ms(replies: List[loadgen.Reply]) -> Dict[str, float]:
    """Median, p95 and p99 latency from due time, in ms.

    Only the median is an end-to-end metric: on a shared 2-core host,
    stalls of 10-100 ms outside the program hit a few percent of requests
    in bursts, so even a p95 moved by ~40% between identical runs.  The
    tails are reported per layer, from an untraced run.
    """
    latencies = [r.latency for r in replies]
    return {q: percentile(latencies, v) * 1e3 for q, v in (("p50", 50), ("p95", 95), ("p99", 99))}


def _rows_per_second(batches: List[loadgen.Reply], group: int = 100) -> List[float]:
    """Scoring rate over each run of ``group`` consecutive completions.

    The reported rate is the best of these windows.  The reference host
    switches between a fast and a ~1.6x slower state for seconds at a
    time (contention from outside; it only ever slows the program), so a
    median over windows mostly measured how long the slow state lasted.
    """
    done = sorted(r.done for r in batches if r.ok)
    if len(done) < 2:
        return [0.0]
    step = min(group, len(done) - 1)
    return [
        step * config.BATCH_ROWS / (done[i + step] - done[i])
        for i in range(0, len(done) - step, step)
    ]


def _setup_only(ctx: Context, index: int, **kwargs) -> Server:
    server = Server(ctx, index, **kwargs)
    server.stop()
    return server


# -- serve --------------------------------------------------------------------------


def _serve_plan() -> List[Tuple[str, int]]:
    """The serve phase order: batch-scoring slices alternate with the rungs
    (low rates first, so the overloaded top rungs come last), and the
    nominal rung runs once at the start and once in the middle, so no one
    stretch of host noise covers a whole metric."""
    rungs = [("rung", r) for r in config.RATE_LADDER if r != config.NOMINAL_RATE]
    slices = [("batch", 0)] * config.BATCH_SLICES
    others: List[Tuple[str, int]] = []
    for i in range(max(len(rungs), len(slices))):
        others += slices[i:i + 1] + rungs[i:i + 1]
    step = len(others) // config.NOMINAL_WINDOWS
    plan: List[Tuple[str, int]] = []
    for w in range(config.NOMINAL_WINDOWS):
        last = w == config.NOMINAL_WINDOWS - 1
        plan += [("rung", config.NOMINAL_RATE)] + others[w * step:None if last else (w + 1) * step]
    return plan


def _serve_phase(ctx: Context, server: Server, rows_list: List[list],
                 plan: List[Tuple[str, int]]) -> dict:
    """Open-loop rungs and closed-loop batch scoring, in ``plan`` order;
    every reply checked."""
    rows = np.asarray(rows_list, dtype=float)
    predicts = loadgen.predict_frames(rows_list)
    blocks = loadgen.batch_frames(rows_list, config.BATCH_ROWS)
    clients = [loadgen.connect(server.port) for _ in range(config.MAX_CONNECTIONS)]
    rungs: Dict[int, List[loadgen.Reply]] = {}
    batches: List[loadgen.Reply] = []
    score_windows: List[float] = []
    cpu_server = cpu_batches = cpu_gen = 0.0
    requests = 0
    slice_s = config.BATCH_SHARE * ctx.seconds / sum(1 for kind, _ in plan if kind == "batch")
    try:
        start = time.monotonic()
        for kind, rate in plan:
            _warm_phase(clients[0])
            s0, g0 = server.cpu(), own_cpu_seconds()
            if kind == "batch":
                replies = loadgen.closed_loop_batches(
                    clients, blocks, config.BATCH_ROWS, slice_s
                )
                cpu_batches += server.cpu() - s0
                batches += replies
                score_windows += _rows_per_second(replies)
                continue
            samples = config.NOMINAL_SAMPLES if rate == config.NOMINAL_RATE else config.RUNG_SAMPLES
            replies = loadgen.open_loop(clients, predicts, rate, samples, offset=requests)
            cpu_server += server.cpu() - s0
            cpu_gen += own_cpu_seconds() - g0
            requests += samples
            rungs.setdefault(rate, []).extend(replies)
        end = time.monotonic()
    finally:
        for client in clients:
            client.close()
    ladder = [r for replies in rungs.values() for r in replies]
    failed = _check_replies(server, ladder, rows)
    failed += _check_replies(server, batches, rows, config.BATCH_ROWS)
    max_rate = 0.0
    for rate, replies in sorted(rungs.items()):
        decile = max(1, len(replies) // 10)
        head = median(r.latency for r in replies[:decile])
        tail = median(r.latency for r in replies[-decile:])
        lateness = percentile([r.lateness for r in replies], 99) * 1e3
        if not (all(r.ok for r in replies)
                and percentile([r.latency for r in replies], 99) * 1e3 <= config.P99_LIMIT_MS
                and tail <= 2.0 * head + 1e-3 and lateness <= config.P99_LIMIT_MS):
            break
        max_rate = float(rate)
    latency = _latency_ms(rungs[config.NOMINAL_RATE])
    return {
        "window": (start, end),
        "attempted": len(ladder) + len(batches),
        "failed": failed,
        "latency_ms": latency,
        "score_windows": score_windows,
        "score_rows_per_s": max(score_windows),
        "max_rate_rps": max_rate,
        "server_cpu_us": cpu_server / requests * 1e6,
        "server_cpu_s": cpu_server + cpu_batches,
        "loadgen_cpu_us": cpu_gen / requests * 1e6,
        "lateness_p99_ms": percentile([r.lateness for r in ladder], 99) * 1e3,
    }


def _traffic(ctx: Context) -> Tuple[List[dict], List[list]]:
    """Held-out stationary records and their rows, in seed-driven order."""
    stationary = inputs.stationary_records(config.SCENARIO_SEED, config.SERVE_PER_APP)
    records = [r for app in stationary.values() for r in app]
    order = np.random.default_rng(ctx.seed).permutation(len(records))
    records = [records[i] for i in order]
    return records, inputs.rows_of(records).tolist()


def run_serve(ctx: Context) -> Outcome:
    records, rows_list = _traffic(ctx)
    problems: List[str] = []

    if ctx.trace:
        reference = Server(ctx, 0)
        try:
            ref = _serve_phase(ctx, reference, rows_list, _serve_plan())
            error = inputs.median_relative_error(reference.model(1), records)
        finally:
            reference.stop()
        traced = Server(ctx, 1, traced=True)
        phase = _serve_phase(ctx, traced, rows_list, _serve_plan())
        traced.stop()
        payload = json.loads(traced.spans.read_text())
        values, analysis = layer_metrics(payload, phase["window"])
        values.update({
            "serve.cpu_us_per_request": ref["server_cpu_us"],
            "serve.max_rate_rps": ref["max_rate_rps"],
            "serve.predict_p95_ms": ref["latency_ms"]["p95"],
            "serve.predict_p99_ms": ref["latency_ms"]["p99"],
            "loadgen.cpu_us_per_request": ref["loadgen_cpu_us"],
            "loadgen.lateness_p99_ms": ref["lateness_p99_ms"],
            "trace.overhead_frac": phase["server_cpu_s"] / ref["server_cpu_s"] - 1.0,
        })
        failed = ref["failed"] + phase["failed"]
        if failed:
            problems.append(f"{failed} predict replies failed or mismatched")
        return per_layer_outcome("serve", values, analysis,
                                 ref["attempted"] + phase["attempted"], failed,
                                 problems, {"val_median_error": error})

    side = config.SETUP_LAUNCHES_EACH_SIDE
    before = [_setup_only(ctx, i) for i in range(side)]
    server = Server(ctx, side)
    try:
        phase = _serve_phase(ctx, server, rows_list, _serve_plan())
        error = inputs.median_relative_error(server.model(1), records)
    finally:
        peak = server.stop()
    servers = before + [server] + [_setup_only(ctx, side + 1 + i) for i in range(side)]
    failed = phase["failed"]
    if failed:
        problems.append(f"{failed} predict replies failed or mismatched")
    attempted = phase["attempted"]
    metrics = {
        "setup_s": (median(s.setup_s for s in servers), "s"),
        "build_s": (min(s.build_s for s in servers), "s"),
        "val_median_error": (error, "fraction"),
        "peak_rss_mb": (peak, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "predict_p50_ms": (phase["latency_ms"]["p50"], "ms"),
        "score_rows_per_s": (phase["score_rows_per_s"], "1/s"),
    }
    return Outcome(metrics, attempted, failed, problems, {"val_median_error": error},
                   details={"setup_s": [s.setup_s for s in servers],
                            "build_s": [s.build_s for s in servers],
                            "latency_ms": phase["latency_ms"],
                            "score_windows": phase["score_windows"],
                            "max_rate_rps": phase["max_rate_rps"]})


# -- maintain -----------------------------------------------------------------------


@dataclasses.dataclass
class MaintainInputs:
    calibration: List[dict]
    held_out: List[dict]
    stream: List[dict]          # stationary records, mixed applications
    pool: List[List[dict]]      # candidate drift applications
    rows: List[list]            # rows for the open-loop predicts


def maintain_inputs(ctx: Context, episodes: int) -> MaintainInputs:
    batches = config.LEAD_IN_BATCHES + episodes * config.SETTLE_BATCHES
    needed = (config.CALIBRATION_RECORDS + config.STATIONARY_HELD_OUT
              + batches * config.OBSERVE_BATCH)
    per_app = -(-needed // 7)
    stationary = inputs.stationary_records(config.SCENARIO_SEED, per_app)
    records = [r for app in stationary.values() for r in app]
    rng = np.random.default_rng(config.SCENARIO_SEED)
    records = [records[i] for i in rng.permutation(len(records))]
    n_cal, n_held = config.CALIBRATION_RECORDS, config.STATIONARY_HELD_OUT
    drift_records = config.MAX_DRIFT_BATCHES * config.OBSERVE_BATCH + config.DRIFT_HELD_OUT
    pool = [
        inputs.drift_application(rng, f"drift{k:02d}", drift_records)
        for k in range(episodes * config.DRIFT_POOL_PER_EPISODE)
    ]
    return MaintainInputs(
        calibration=records[:n_cal],
        held_out=records[n_cal:n_cal + n_held],
        stream=records[n_cal + n_held:],
        pool=pool,
        rows=inputs.rows_of([
            records[n_cal + n_held + i]
            for i in np.random.default_rng(ctx.seed).permutation(len(records) - n_cal - n_held)
        ]).tolist(),
    )


@dataclasses.dataclass
class Observation:
    kind: str          # "lead", "drift" or "settle"
    episode: int
    sent: float
    done: float
    ok: bool
    reply: dict


def _profiles(records: List[dict]) -> List[dict]:
    return [{"x": r["x"], "y": r["y"], "z": r["z"]} for r in records]


def _maintain_phase(ctx: Context, server: Server, data: MaintainInputs,
                    episodes: int) -> dict:
    """Reads on one connection, the observe schedule on the other."""
    predict_client, observe_client = (loadgen.connect(server.port) for _ in range(2))
    observations: List[Observation] = []
    chosen: List[int] = []
    stop = threading.Event()
    predicts: List[loadgen.Reply] = []
    cursor = [0]
    last_send = [0.0]

    def observe(kind: str, episode: int, application: str, records: List[dict]) -> dict:
        wait = last_send[0] + config.OBSERVE_INTERVAL_S - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        sent = last_send[0] = time.monotonic()
        try:
            reply = observe_client.observe_stream(application, _profiles(records))
            ok = True
        except (ServeError, OSError, ValueError) as exc:
            reply, ok = {"error": str(exc)}, False
        observations.append(Observation(kind, episode, sent, time.monotonic(), ok, reply))
        return reply

    def stationary(kind: str, episode: int, n: int) -> None:
        for _ in range(n):
            i = cursor[0]
            cursor[0] += config.OBSERVE_BATCH
            observe(kind, episode, "stationary", data.stream[i:i + config.OBSERVE_BATCH])

    def choose(used: set) -> Optional[int]:
        """The next candidate the drift gate's reference model mispredicts
        badly enough: the newest bootstrap or re-specified version (later
        refreshes only move coefficients, the gate scores against these)."""
        registry = server.registry
        reference = max(
            v for v in registry.versions(MODEL_KEY)
            if registry.entry_metadata(MODEL_KEY, v).get("trigger")
            in ("bootstrap", "stream-respec")
        )
        model = server.model(reference)
        baseline = inputs.median_relative_error(model, data.calibration)
        stream_part = config.MAX_DRIFT_BATCHES * config.OBSERVE_BATCH
        for k, candidate in enumerate(data.pool):
            if k in used:
                continue
            error = inputs.median_relative_error(model, candidate[:stream_part])
            if error >= config.DRIFT_MIN_RATIO * baseline:
                return k
        return None

    def schedule() -> None:
        try:
            stationary("lead", -1, config.LEAD_IN_BATCHES)
            used: set = set()
            for episode in range(episodes):
                k = choose(used)
                if k is None:
                    break
                used.add(k)
                chosen.append(k)
                records = data.pool[k]
                for b in range(config.MAX_DRIFT_BATCHES):
                    batch = records[b * config.OBSERVE_BATCH:(b + 1) * config.OBSERVE_BATCH]
                    if observe("drift", episode, records[0]["app"], batch).get("respec_scheduled"):
                        break
                stationary("settle", episode, config.SETTLE_BATCHES)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                updates = observe_client.stats()["updates"]
                if not updates["update_in_progress"]:
                    break
                time.sleep(0.05)
        finally:
            stop.set()

    frames = loadgen.predict_frames(data.rows)

    def read() -> None:
        predicts.extend(loadgen.open_loop(
            [predict_client], frames, config.MAINTAIN_PREDICT_RATE, None, stop
        ))

    try:
        _warm_phase(observe_client)
        cpu0, start = server.cpu(), time.monotonic()
        loadgen.run_threads([schedule, read])
        end, cpu1 = time.monotonic(), server.cpu()
        stats = observe_client.stats()
        _warm_phase(observe_client)
        batches = loadgen.closed_loop_batches(
            [predict_client, observe_client],
            loadgen.batch_frames(data.rows, config.BATCH_ROWS), config.BATCH_ROWS,
            config.MAINTAIN_SCORE_SHARE * ctx.seconds,
        )
    finally:
        predict_client.close()
        observe_client.close()
    return {
        "observations": observations, "predicts": predicts, "batches": batches,
        "chosen": chosen, "stats": stats, "window": (start, end),
        "server_cpu_s": cpu1 - cpu0,
    }


def _check_maintain(server: Server, data: MaintainInputs, phase: dict,
                    episodes: int, problems: List[str]) -> Tuple[int, dict]:
    """Structural checks of one maintain phase; returns (failures, findings)."""
    observations: List[Observation] = phase["observations"]
    rows = np.asarray(data.rows, dtype=float)
    failed = _check_replies(server, phase["predicts"], rows)
    failed += _check_replies(server, phase["batches"], rows, config.BATCH_ROWS)
    failed += sum(1 for o in observations if not o.ok)

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        problems.append(message)

    if len(phase["chosen"]) != episodes:
        fail(f"found drift applications for {len(phase['chosen'])} of {episodes} episodes")
    for kind in ("lead", "settle"):
        tripped = [o for o in observations if o.kind == kind and o.ok and (
            o.reply.get("respec_scheduled") or o.reply.get("drift_tripped"))]
        if tripped:
            fail(f"{len(tripped)} stationary {kind} batches tripped the drift gate")
    triggers = {v: server.registry.entry_metadata(MODEL_KEY, v).get("trigger")
                for v in server.registry.versions(MODEL_KEY)}
    replies = sorted(
        [(r.done, r.version) for r in phase["predicts"] if r.ok]
        + [(o.done, o.reply["model_version"]) for o in observations if o.ok],
    )
    served = []
    for episode in range(len(phase["chosen"])):
        scheduled = [o for o in observations if o.episode == episode and o.ok
                     and o.reply.get("respec_scheduled")]
        if len(scheduled) != 1:
            fail(f"episode {episode} scheduled {len(scheduled)} re-specifications")
            continue
        trigger = scheduled[0]
        respec_versions = [v for v, t in triggers.items()
                           if v > trigger.reply["model_version"] and t == "stream-respec"]
        if not respec_versions:
            fail(f"episode {episode}: no re-specified model was published")
            continue
        version = min(respec_versions)
        first = next((t for t, v in replies if t >= trigger.done and v >= version), None)
        if first is None:
            fail(f"episode {episode}: no reply served by v{version}")
            continue
        served.append(first - trigger.done)
    for stream_replies in (
        [r.version for r in phase["predicts"] if r.ok],
        [o.reply["model_version"] for o in observations if o.ok],
    ):
        if any(b < a for a, b in zip(stream_replies, stream_replies[1:])):
            fail("a connection saw the model version go backwards")
    updates = phase["stats"]["updates"]
    stream = updates.get("stream", {})
    if updates["updates_failed"] or stream.get("failed") or updates["last_error"]:
        fail(f"stats show a failed update: {updates['last_error']}")
    if stream.get("respecs") != len(served):
        fail(f"stats count {stream.get('respecs')} re-specifications, "
             f"{len(served)} were served")
    final = server.model(server.registry.latest_version(MODEL_KEY))
    held = list(data.held_out)
    stream_part = config.MAX_DRIFT_BATCHES * config.OBSERVE_BATCH
    for k in phase["chosen"]:
        held += data.pool[k][stream_part:]
    findings = {
        "served": served,
        "val_median_error": inputs.median_relative_error(final, held),
        "observe_ms": [(o.done - o.sent) * 1e3 for o in observations],
        "counts": {
            "chosen": phase["chosen"],
            "drift_batches": [sum(1 for o in observations
                                  if o.kind == "drift" and o.episode == e)
                              for e in range(len(phase["chosen"]))],
            "respec_versions": sorted(v for v, t in triggers.items() if t == "stream-respec"),
            "refreshes": stream.get("refreshes"),
        },
    }
    return failed, findings


def _maintain_counts(findings: dict) -> dict:
    """What must repeat exactly for a seed, in traced and untraced runs alike."""
    return dict(findings["counts"], val_median_error=findings["val_median_error"])


def run_maintain(ctx: Context) -> Outcome:
    episodes = max(2, ctx.seconds // config.SECONDS_PER_EPISODE)
    data = maintain_inputs(ctx, episodes)
    calibration = ctx.work / "calibration.json"
    calibration.write_text(json.dumps(data.calibration))
    problems: List[str] = []

    def attempted(phase: dict) -> int:
        return len(phase["predicts"]) + len(phase["batches"]) + len(phase["observations"])

    if ctx.trace:
        reference = Server(ctx, 0, stream=True, calibration=calibration)
        ref = _maintain_phase(ctx, reference, data, episodes)
        failed, ref_findings = _check_maintain(reference, data, ref, episodes, problems)
        reference.stop()
        traced = Server(ctx, 1, stream=True, traced=True, calibration=calibration)
        phase = _maintain_phase(ctx, traced, data, episodes)
        more, findings = _check_maintain(traced, data, phase, episodes, problems)
        traced.stop()
        failed += more
        payload = json.loads(traced.spans.read_text())
        values, analysis = layer_metrics(payload, phase["window"])
        ingest = sorted(
            (s[1], s[2] - s[1]) for s in payload["spans"] if s[0] == "stream.ingest"
        )
        waits = [
            latency - duration * 1e3
            for latency, (_, duration) in zip(findings["observe_ms"], ingest)
        ]
        values.update({
            "serve.observe_wait_ms": float(np.mean(waits)) if waits else 0.0,
            "stream.observe_p50_ms": percentile(ref_findings["observe_ms"], 50),
            "stream.observe_p95_ms": percentile(ref_findings["observe_ms"], 95),
            "stream.respec_served_s": median(ref_findings["served"]) if ref_findings["served"] else 0.0,
            "serve.predict_p95_ms": _latency_ms(ref["predicts"])["p95"],
            "serve.predict_p99_ms": _latency_ms(ref["predicts"])["p99"],
            "trace.overhead_frac": phase["server_cpu_s"] / ref["server_cpu_s"] - 1.0,
        })
        if findings["counts"] != ref_findings["counts"]:
            failed += 1
            problems.append("traced and untraced maintain runs diverged")
        return per_layer_outcome("maintain", values, analysis,
                                 attempted(ref) + attempted(phase), failed, problems,
                                 {"maintain": _maintain_counts(ref_findings)})

    side = config.SETUP_LAUNCHES_EACH_SIDE
    before = [_setup_only(ctx, i, stream=True, calibration=calibration) for i in range(side)]
    server = Server(ctx, side, stream=True, calibration=calibration)
    try:
        phase = _maintain_phase(ctx, server, data, episodes)
        failed, findings = _check_maintain(server, data, phase, episodes, problems)
    finally:
        peak = server.stop()
    servers = before + [server] + [
        _setup_only(ctx, side + 1 + i, stream=True, calibration=calibration)
        for i in range(side)
    ]
    total = attempted(phase)
    latency = _latency_ms(phase["predicts"])
    score_windows = _rows_per_second(phase["batches"])
    metrics = {
        "setup_s": (median(s.setup_s for s in servers), "s"),
        "build_s": (min(s.build_s for s in servers), "s"),
        "val_median_error": (findings["val_median_error"], "fraction"),
        "peak_rss_mb": (peak, "MiB"),
        "ok_frac": ((total - failed) / total, "fraction"),
        "predict_p50_ms": (latency["p50"], "ms"),
        "score_rows_per_s": (max(score_windows), "1/s"),
    }
    return Outcome(metrics, total, failed, problems, {"maintain": _maintain_counts(findings)},
                   details={"setup_s": [s.setup_s for s in servers],
                            "build_s": [s.build_s for s in servers],
                            "served_s": findings["served"],
                            "predict_samples": len(phase["predicts"]),
                            "latency_ms": latency,
                            "score_windows": score_windows,
                            "observe_ms": findings["observe_ms"]})
