"""The program under test, in its own process.

Three modes, all driving the pipeline only through its public entry points:

``build``        one cold model build (generate -> profile -> simulate ->
                 dataset -> GA -> fit -> validate) into fresh cache and
                 store directories; the model is then published to a
                 registry;
``serve-model``  ``PredictionServer`` over the latest model of a build's
                 registry;
``server``       the small general-study model behind ``PredictionServer``
                 as ``serve`` (``--stream``: ``serve --stream``) brings it up.

Protocol on stdout: ``READY <json>`` once set-up is done (the load
generator times set-up up to that line), ``RESULT <json>`` when a build
finishes.  With ``--trace 1`` the layer wrappers of :mod:`perfbench.tracing`
are installed before any work and the spans are written at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import config  # noqa: E402
from perfbench.host import warm_blas  # noqa: E402
from perfbench.tracing import Tracer, install  # noqa: E402

from repro.core import GeneticSearch, chromosome_from_spec, manual_general_spec  # noqa: E402
from repro.core.dataset import ProfileDataset, ProfileRecord  # noqa: E402
from repro.core.metrics import median_error  # noqa: E402
from repro.experiments.common import build_general_dataset  # noqa: E402
from repro.serve import build_service  # noqa: E402
from repro.serve.batching import ModelSlot  # noqa: E402
from repro.serve.bootstrap import attach_streaming  # noqa: E402
from repro.serve.registry import ModelKey, ModelRegistry  # noqa: E402
from repro.serve.server import PredictionServer  # noqa: E402

MODEL_SPACE = "perfbench"
MODEL_APPLICATION = "general"
MODEL_KEY = ModelKey(MODEL_SPACE, MODEL_APPLICATION)


def say(kind: str, payload: dict) -> None:
    print(f"{kind} {json.dumps(payload)}", flush=True)


def dataset_digest(*datasets: ProfileDataset) -> str:
    digest = hashlib.sha256()
    for dataset in datasets:
        digest.update(dataset.matrix().tobytes())
        digest.update(dataset.targets().tobytes())
        digest.update("|".join(dataset.labels()).encode())
    return digest.hexdigest()[:16]


# -- build ----------------------------------------------------------------------------


def run_build(args) -> None:
    scale = config.BUILD_SCALE
    warm_blas()
    start = time.monotonic()
    train, val = build_general_dataset(scale, seed=config.SUITE_SEED)
    search = GeneticSearch(population_size=scale.population, seed=config.BUILD_GA_SEED)
    initial = [chromosome_from_spec(manual_general_spec(), train.variable_names)]
    result = search.run(train, scale.generations, initial_population=initial)
    model = result.best_model(train)
    error = median_error(model.predict(val), val.targets())
    end = time.monotonic()

    consistent = bool(
        np.array_equal(model.predict_rows(val.matrix()), model.predict(val))
    )
    # Publish the build, untimed: its user is the serving tier, which the
    # load generator brings up on this registry (``serve-model``).
    ModelRegistry(Path(args.work) / "registry").publish(
        MODEL_KEY, model, metadata={"trigger": "build"}
    )
    say("RESULT", {
        "build_s": end - start,
        "window": [start, end],
        "val_median_error": error,
        "digest": dataset_digest(train, val),
        "n_train": len(train),
        "n_val": len(val),
        "eval_stats": search.last_eval_stats,
        "best": repr(result.best_chromosome.genes),
        "predict_rows_consistent": consistent,
    })


# -- server ---------------------------------------------------------------------------


def _records(rows: list) -> list:
    return [ProfileRecord(r["app"], r["x"], r["y"], r["z"]) for r in rows]


def run_server(args) -> None:
    scale = config.SERVE_SCALE
    # Untimed: the GA bootstrap would otherwise meet cold two-thread BLAS.
    # Its duration is reported so that set-up time leaves it out.
    warm_start = time.monotonic()
    warm_blas()
    start = time.monotonic()
    train, _ = build_general_dataset(scale, seed=args.seed)
    server, serving, _ = build_service(
        train,
        Path(args.work) / "registry",
        space=MODEL_SPACE,
        application=MODEL_APPLICATION,
        generations=config.SERVE_GENERATIONS,
        population_size=config.SERVE_POPULATION,
        seed=args.seed,
        batch_config=config.BATCH_CONFIG,
    )
    build_end = time.monotonic()
    if args.stream:
        respec = attach_streaming(
            serving,
            publish_every=config.PUBLISH_EVERY,
            drift_config=config.DRIFT_CONFIG,
        )
        # Calibrate the drift baseline on a stationary prequential batch,
        # as the stream demo does: the GA's leave-one-app-out fitness is
        # in the wrong units for the trip ratio.
        calibration = json.loads(Path(args.calibration).read_text())
        batch = ProfileDataset(
            train.x_names, train.y_names, _records(calibration)
        )
        errors = np.abs(respec.reference.predict(batch) - batch.targets())
        respec.set_baseline(float(np.median(errors / np.abs(batch.targets()))))

    try:
        listen(server, build_s=build_end - start, warm_s=start - warm_start)
    finally:
        serving.close()


def run_serve_model(args) -> None:
    """Serve the latest model of a build's registry, as the serve tier would."""
    registry = ModelRegistry(Path(args.work) / "registry")
    model, version = registry.load(MODEL_KEY)
    server = PredictionServer(
        ModelSlot(model, version), batch_config=config.BATCH_CONFIG
    )
    listen(server)


def listen(server: PredictionServer, **ready) -> None:
    """Listen, say READY, serve until a ``shutdown`` request."""
    # Benchmark-only op, registered the way the server's own dispatch table
    # is extended: an untimed BLAS warm-up before each timed phase.
    server._ops["bench_warmup"] = lambda request: {"ok": True, **warm_blas()}

    async def serve() -> None:
        await server.start()
        say("READY", {"port": server.port, "version": server.slot.version, **ready})
        await server.serve_forever()

    asyncio.run(serve())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["build", "server", "serve-model"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--stream", action="store_true")
    parser.add_argument("--calibration")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    try:
        if args.mode == "build":
            say("READY", {})
            if not args.setup_only:
                run_build(args)
        elif args.mode == "serve-model":
            run_serve_model(args)
        else:
            run_server(args)
    finally:
        if tracer is not None and args.spans:
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
