"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig05 [--scale small|bench|full]
    python -m repro.experiments all  [--scale small|bench|full]
    python -m repro.experiments serve [--port 7654] [--registry DIR] [--shards N]

Each experiment prints the rows/series of the corresponding paper table or
figure and writes the same report to ``reports/<id>.txt`` (an ignored
output directory; override with ``--report-dir`` or ``$REPRO_REPORT_DIR``).
Results are cached under ``.cache/``, so re-running is cheap.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.experiments.common import SCALES, current_scale

#: Experiment id -> (module name, description).
EXPERIMENTS = {
    "fig03": ("fig03_variance", "Figure 3 — variance stabilization"),
    "fig04": ("fig04_interactions", "Figure 4 — interaction frequencies"),
    "fig05": ("fig05_convergence", "Figure 5 — genetic convergence"),
    "table3": ("table3_transforms", "Table 3 — selected transformations"),
    "sec42": ("sec42_baselines", "Section 4.2 — genetic vs manual/stepwise"),
    "fig07-08": ("fig07_08_accuracy", "Figures 7-8 — accuracy in all scenarios"),
    "fig09": ("fig09_outliers", "Figure 9 — the bwaves outlier"),
    "fig10": ("fig10_shards", "Figure 10 — shard-level extrapolation"),
    "sec43": ("sec43_cost", "Section 4.3 — profiling cost reduction"),
    "fig12-13": ("fig12_13_trends", "Figures 12-13 — SpMV trends"),
    "fig14": ("fig14_spmv", "Figure 14 — SpMV model accuracy"),
    "fig15": ("fig15_topology", "Figure 15 — performance topology"),
    "fig16": ("fig16_tuning", "Figure 16 — coordinated tuning"),
    "stream": ("stream_demo", "Streaming re-spec — drift detection on a drifting-sparsity SpMV stream"),
    "retune": ("retune_demo", "Online re-tuning — drift-triggered coordinated (r, c, cache) migration"),
    "ablations": ("ablations", "Ablations — sharding, stabilization, response scale, synthetic coverage"),
    "ext-memory": ("ext_memory", "Extension — memory-behavior characteristics x14..x17"),
    "val-timing": ("val_timing", "Validation — interval model vs cycle-level simulation"),
    "transfer": ("transfer_demo", "Transfer — cross-backend warm-started search + shared representation"),
}


class ExperimentCheckError(AssertionError):
    """An experiment ran but failed its own acceptance check."""


def run_experiment(key: str, scale, svg_dir=None) -> str:
    """Run one experiment under phase spans (run / report / render).

    The spans land in the process metrics registry as per-figure phase
    timings (``span.experiment.<key>.<phase>.*``), which ``main`` exports
    as JSONL next to the text reports.

    Modules may define a ``check(result)`` hook raising ``AssertionError``
    when the run fails its own acceptance criterion (e.g. the stream demo's
    drift gate never tripping); the failure is re-raised as
    :class:`ExperimentCheckError` so ``main`` can exit non-zero instead of
    letting a regressed demo pass silently.
    """
    module_name, _ = EXPERIMENTS[key]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    with obs.span(f"experiment.{key}"):
        with obs.span(f"experiment.{key}.run"):
            result = module.run(scale)
        with obs.span(f"experiment.{key}.report"):
            report = module.report(result)
        checker = getattr(module, "check", None)
        if checker is not None:
            try:
                checker(result)
            except AssertionError as exc:
                error = ExperimentCheckError(f"{key}: {exc}")
                error.report = report  # let main print the evidence
                raise error from exc
        if svg_dir is not None:
            from repro.viz import render

            with obs.span(f"experiment.{key}.render"):
                written = render(key, result, svg_dir)
            if written:
                report += "\n  [svg] " + ", ".join(str(p) for p in written)
    return report


def _backend_names():
    """Registered timing-backend names (lazy: avoids import at CLI parse)."""
    from repro.uarch.backends import BACKEND_NAMES

    return BACKEND_NAMES


def _check_bootstrap(serving, backend: str) -> None:
    """Acceptance check for the serve bootstrap (AssertionError on miss).

    A service that trained a useless model or lost its backend tag must
    not come up quietly and answer traffic — the runner turns this into
    a ``FAILED check`` exit before the listener starts.
    """
    error = serving.stream.detector.baseline  # the bootstrap GA error
    assert error <= 0.25, (
        f"bootstrap model unusable: steady-state median error {error:.1%} "
        "exceeds 25% on the demo dataset"
    )
    assert serving.slot.version >= 1, "no model version published to the slot"
    stats = serving.stats_dict()
    assert stats["backend"] == backend, (
        f"backend tag lost in bootstrap: stats say {stats['backend']!r}, "
        f"expected {backend!r}"
    )


def serve_main(argv) -> int:
    """The ``serve`` subcommand: train a model and run the prediction server.

    Boot-straps a demo service (synthetic dataset, short genetic search),
    publishes the model to the registry, and serves until interrupted or a
    client sends ``shutdown``; ``observe`` frames keep the model current.
    Point real traffic at it with :class:`repro.serve.ServeClient` or
    ``python -m repro.serve.client``.
    """
    import asyncio

    from repro.serve import BatchConfig, build_service, demo_dataset

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Serve an inferred model over TCP with micro-batching. "
        "'observe' frames keep it current: each refreshes the coefficients, "
        "and once the paper's drift rule trips (profiles predicted worse "
        "than 1.5x the steady-state error) a background re-specification "
        "swaps in a new model.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7654)
    parser.add_argument(
        "--registry",
        default=".cache/registry",
        help="model registry directory (default: .cache/registry)",
    )
    parser.add_argument("--space", default="demo")
    parser.add_argument("--application", default="suite")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--generations", type=int, default=3, help="bootstrap GA generations"
    )
    parser.add_argument(
        "--population-size", type=int, default=10, help="bootstrap GA population"
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--max-latency-ms",
        type=float,
        default=2.0,
        help="longest a tick may gather (it closes as soon as no request is ready)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve from this many worker processes behind one port "
        "(1 = classic single-process server)",
    )
    parser.add_argument(
        "--stream-publish-every",
        type=int,
        default=8,
        metavar="N",
        help="publish only every Nth coefficient refresh to the registry "
        "(each publish is a durable fsync + a new version; "
        "re-specifications always publish immediately)",
    )
    parser.add_argument(
        "--backend",
        choices=_backend_names(),
        default="cpu",
        help="timing backend tag for the served model: stamped into "
        "registry metadata, stats payloads, and prometheus labels",
    )
    parser.add_argument(
        "--metrics-dump",
        action="store_true",
        help="instead of starting a server, fetch the metrics of the one "
        "already listening on --host/--port and print a Prometheus-style "
        "text dump",
    )
    args = parser.parse_args(argv)

    if args.metrics_dump:
        from repro.serve import ServeClient

        with ServeClient(args.host, args.port) as client:
            sys.stdout.write(client.metrics_prometheus())
        return 0

    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.stream_publish_every < 1:
        parser.error("--stream-publish-every must be >= 1")
    if args.shards > 1:
        return _serve_sharded(args)

    print("bootstrapping demo model (genetic search)...", flush=True)
    server, serving, _ = build_service(
        demo_dataset(seed=args.seed),
        args.registry,
        space=args.space,
        application=args.application,
        host=args.host,
        port=args.port,
        generations=args.generations,
        population_size=args.population_size,
        seed=args.seed,
        batch_config=BatchConfig(
            max_batch=args.max_batch,
            max_latency_s=args.max_latency_ms / 1000.0,
        ),
        backend=args.backend,
    )
    try:
        _check_bootstrap(serving, args.backend)
    except AssertionError as failure:
        print(f"FAILED check: {failure}", file=sys.stderr)
        serving.close()
        return 1
    serving.attach_stream(serving.stream, publish_every=args.stream_publish_every)

    async def run() -> None:
        await server.start()
        print(
            f"serving {args.space}/{args.application} "
            f"v{server.slot.version} on {args.host}:{server.port}",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            serving.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_sharded(args) -> int:
    """``serve --shards N``: the multi-process fleet, draining on SIGTERM.

    The supervisor runs until SIGTERM/SIGINT, then fans the stop out:
    flush per-shard + merged metrics JSONL, gracefully drain every worker
    (in-flight requests finish; see ``ShardSupervisor.drain``), and exit 0
    so process managers read the shutdown as clean.
    """
    import signal
    import threading

    from repro.serve import BatchConfig, build_sharded_service, demo_dataset

    print(
        f"bootstrapping demo model (genetic search) for {args.shards} shards...",
        flush=True,
    )
    supervisor = build_sharded_service(
        demo_dataset(seed=args.seed),
        args.registry,
        n_shards=args.shards,
        space=args.space,
        application=args.application,
        host=args.host,
        port=args.port,
        generations=args.generations,
        population_size=args.population_size,
        seed=args.seed,
        batch_config=BatchConfig(
            max_batch=args.max_batch,
            max_latency_s=args.max_latency_ms / 1000.0,
        ),
        backend=args.backend,
    )
    try:
        _check_bootstrap(supervisor.serving, args.backend)
    except AssertionError as failure:
        print(f"FAILED check: {failure}", file=sys.stderr)
        supervisor.serving.close()
        return 1
    supervisor.serving.attach_stream(
        supervisor.serving.stream, publish_every=args.stream_publish_every
    )

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    supervisor.start()
    try:
        print(
            f"serving {args.space}/{args.application} "
            f"v{supervisor.serving.slot.version} on {args.host}:{supervisor.port} "
            f"({args.shards} shards, {supervisor.mode} mode; SIGTERM drains)",
            flush=True,
        )
        stop.wait()
        print("draining fleet...", flush=True)
        report_dir = obs.default_report_dir()
        if report_dir is not None:
            try:
                path = supervisor.flush_metrics(
                    report_dir / "metrics_serve_shards.jsonl"
                )
                print(f"[metrics] {path}", flush=True)
            except Exception as exc:  # metrics must never block the drain
                print(f"[metrics] flush failed: {exc}", flush=True)
    finally:
        supervisor.drain()
    print("fleet drained, exiting", flush=True)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'list', or 'serve'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="experiment scale (default: $REPRO_SCALE or 'bench')",
    )
    parser.add_argument(
        "--svg",
        metavar="DIR",
        default=None,
        help="also render the experiment's figures as SVG files into DIR",
    )
    parser.add_argument(
        "--report-dir",
        metavar="DIR",
        default=os.environ.get("REPRO_REPORT_DIR", "reports"),
        help="directory for per-experiment report files (default: reports/, "
        "git-ignored; override with $REPRO_REPORT_DIR; '-' disables)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for key, (_, description) in EXPERIMENTS.items():
            print(f"  {key:<10s} {description}")
        print("  serve      Online prediction server (repro.serve; own flags, try 'serve --help')")
        return 0

    scale = current_scale(args.scale)
    keys = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [k for k in keys if k not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    report_dir = None if args.report_dir == "-" else Path(args.report_dir)
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)

    status = 0
    for key in keys:
        start = time.time()
        try:
            report = run_experiment(key, scale, args.svg)
            failure = None
        except ExperimentCheckError as exc:
            report = getattr(exc, "report", "")
            failure = str(exc)
            status = 1
        header = f"[{key} @ scale={scale.name}, {time.time() - start:.1f}s]"
        print(f"\n{header}")
        print(report)
        if failure is not None:
            print(f"FAILED check: {failure}", file=sys.stderr)
        if report_dir is not None:
            path = report_dir / f"{key.replace('-', '_')}.txt"
            path.write_text(f"{header}\n{report}\n")
    if report_dir is not None and obs.enabled():
        metrics_path = obs.export_jsonl(
            report_dir / "metrics_experiments.jsonl", run="experiments"
        )
        print(f"\n[metrics] {metrics_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
