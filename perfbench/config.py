"""Every size the benchmark runs at, defined here and nowhere else.

The benchmark never reads ``SCALES`` or CLI defaults from ``src/``: a
change to the program cannot shrink the inputs it is measured on.  Only
the :class:`~repro.experiments.common.Scale` *type* is borrowed, with
every field spelled out.
"""

from __future__ import annotations

from repro.experiments.common import Scale
from repro.serve.batching import BatchConfig
from repro.stream.drift import DriftConfig

# -- build: one cold bench-sized model build ------------------------------------------

#: 7 SPEC-like apps x 24 shards x 10k instructions; 7 x 140 = 980
#: training and 140 validation records.
BUILD_SCALE = Scale(
    "perfbench-bench",
    configs_per_app=140,
    shards_per_app=24,
    population=30,
    generations=12,
    validation_pairs=140,
    spmv_train=240,
    spmv_val=60,
    tuning_caches=40,
)
#: The build is one fixed job: the suite sample every build profiles (the
#: experiments' default seed) and the GA seed the experiments use.  The
#: workload seed only orders the scoring rows.  A seed-driven suite sample
#: or GA moves build time by ~15% and the built model's error by up to
#: ~30% between seeds, which would bury the regressions this measures.
SUITE_SEED = 2012
BUILD_GA_SEED = 7
#: Builds per run never drop below this, whatever ``--seconds`` says.
#: ``build_s`` is the fastest of them: host contention only ever adds
#: time, and on the 2-core reference host it was uncorrelated from one
#: build to the next within a period (lag-1 correlation 0.06 over 24
#: builds).  A third build fits only in a fast period: in a slow one the
#: benchmark's runs would no longer fit the time they are given.
MIN_BUILDS = 2

# -- serve and maintain: the small general-study model behind the server ------------

SERVE_SCALE = Scale(
    "perfbench-small",
    configs_per_app=40,
    shards_per_app=8,
    population=10,
    generations=3,
    validation_pairs=40,
    spmv_train=60,
    spmv_val=20,
    tuning_caches=12,
)
#: Bootstrap GA of the served model (the serve CLI's sizes, pinned here).
SERVE_POPULATION = 10
SERVE_GENERATIONS = 3
#: The served model is trained once on a fixed suite sample, as a deployed
#: service is; the workload seed drives its traffic and its drift.
SERVICE_SEED = 2012
#: The serve CLI's batching defaults, pinned: max batch 64, 2 ms window.
BATCH_CONFIG = BatchConfig(max_batch=64, max_latency_s=0.002)
#: Set-up-only server launches before the measured server, and as many
#: after it, so that set-up samples span the whole run.  ``setup_s`` is
#: the median of all launches, and the cold build inside set-up is
#: reported as the fastest of them, as for ``MIN_BUILDS``.
SETUP_LAUNCHES_EACH_SIDE = 1

#: Open-loop single-row ``predict`` rates (requests/s), low to high.  Two
#: connections with one request in flight each, behind a 2 ms batching
#: window, top out near 600 requests/s on the 2-core reference host; the
#: top rungs lie past that knee, so the highest sustained rate lands
#: below the top and can move either way.
RATE_LADDER = (200, 300, 400, 500, 600, 700, 800)
#: The rung whose median latency is reported as ``predict_p50_ms``; it
#: runs twice, interleaved with the other phases.
NOMINAL_RATE = 200
NOMINAL_WINDOWS = 2
#: A rung counts toward the highest sustained rate only if its p99 is
#: within this limit and the generator kept to its schedule.
P99_LIMIT_MS = 25.0
#: Requests per rung, and per nominal window: p99 has ten beyond it.
RUNG_SAMPLES = 1000
NOMINAL_SAMPLES = RUNG_SAMPLES // NOMINAL_WINDOWS
#: Rows per closed-loop ``predict_batch`` request.
BATCH_ROWS = 256
#: Share of ``--seconds`` spent on closed-loop batch scoring, in this many
#: slices spread between the rungs: the host's speed changes over seconds,
#: and one stretch of it should not decide the scoring rate.
BATCH_SHARE = 0.3
BATCH_SLICES = 4
#: Held-out stationary records per application behind the serve traffic.
SERVE_PER_APP = 100
#: Connections (and generator threads): the cores of the 2-core reference host.
MAX_CONNECTIONS = 2

# -- maintain: the streaming respecifier attached as ``serve --stream`` -------------

#: ``serve --stream`` publishes every 8th refresh.
PUBLISH_EVERY = 8
#: Hysteresis of the drift gate (the stream demo's tuned policy).
DRIFT_CONFIG = DriftConfig(
    window=48, min_fill=16, trip_ratio=2.5, clear_ratio=1.3, patience=2
)
#: Records per ``observe_stream`` batch, and the calibration batch size.
OBSERVE_BATCH = 24
CALIBRATION_RECORDS = 64
#: The held-out stationary records behind serve and maintain, and the drift
#: applications, are fixed for the same reason; the workload seed drives
#: which rows the read traffic sends, in which order.
SCENARIO_SEED = 99
#: One drift episode per this many seconds of ``--seconds`` (at least 2).
SECONDS_PER_EPISODE = 3
#: Candidate drift applications generated per episode in set-up.
DRIFT_POOL_PER_EPISODE = 5
#: Share of ``--seconds`` for batch scoring after the maintenance schedule.
MAINTAIN_SCORE_SHARE = 0.5
#: Stationary batches before the first episode (must trip nothing), and
#: after each episode's re-specification is served.
LEAD_IN_BATCHES = 10
SETTLE_BATCHES = 6
#: A drift episode that has not tripped after this many batches fails.
MAX_DRIFT_BATCHES = 8
#: Pause between ``observe_stream`` sends on the write connection.
OBSERVE_INTERVAL_S = 0.1
#: Open-loop ``predict`` rate on the read connection while maintaining.
MAINTAIN_PREDICT_RATE = 100
#: Shards per drift application, and its held-out records.
DRIFT_SHARDS = 2
DRIFT_HELD_OUT = 16
#: A drift application must be mispredicted by the served model by at
#: least this multiple of the calibrated baseline error.
DRIFT_MIN_RATIO = 4.0
#: Shards per application behind the stationary stream.
STATIONARY_SHARDS = 2
STATIONARY_HELD_OUT = 64
