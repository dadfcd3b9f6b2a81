"""Shared experiment infrastructure: scales, caching, dataset builders.

Every paper experiment runs at one of three scales:

* ``small``  — seconds; used by the test suite;
* ``bench``  — the default for ``pytest benchmarks/``; minutes in total;
* ``full``   — the paper's sample counts (360 architectures/application,
  population 50, 20 generations); select with ``REPRO_SCALE=full``.

Expensive artifacts (shard statistics, sampled profile datasets, genetic
search results, SpMV simulations) are cached under ``.cache/`` keyed by a
hash of all generating parameters, so repeated benchmark runs are fast and
reproducible.  Large arrays inside an artifact live in the
:mod:`repro.store` mmap column store; the pickle on disk holds small
metadata plus column references.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro import store as store_mod
from repro.core import ProfileDataset, ProfileRecord
from repro.parallel import parallel_map
from repro.profiling import SOFTWARE_VARIABLE_NAMES
from repro.profiling.shards import ShardProfile
from repro.store.artifacts import dump_artifact, load_artifact
from repro.uarch import HARDWARE_VARIABLE_NAMES, PipelineConfig, get_backend
from repro.workloads import generate_trace, spec2006_suite

SHARD_LENGTH = 10_000


@dataclasses.dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    name: str
    configs_per_app: int        # architectures profiled per application
    shards_per_app: int         # shards generated per application
    population: int             # GA population size
    generations: int            # GA generations
    validation_pairs: int       # held-out application-architecture pairs
    spmv_train: int             # SpMV training samples per matrix
    spmv_val: int               # SpMV validation samples per matrix
    tuning_caches: int          # candidate caches for architecture tuning


SCALES: Dict[str, Scale] = {
    "small": Scale("small", 40, 8, 10, 3, 40, 60, 20, 12),
    "bench": Scale("bench", 140, 24, 30, 12, 140, 240, 60, 40),
    "full": Scale("full", 360, 45, 50, 20, 140, 400, 100, 80),
}


def current_scale(override: Optional[str] = None) -> Scale:
    """The active scale: explicit override, else $REPRO_SCALE, else bench."""
    name = override or os.environ.get("REPRO_SCALE", "bench")
    if name not in SCALES:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(SCALES)}")
    return SCALES[name]


# --------------------------------------------------------------------------------------
# Disk cache
# --------------------------------------------------------------------------------------


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    path = Path(root) if root else Path(__file__).resolve().parents[3] / ".cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cached(key: str, build: Callable[[], object], refresh: bool = False):
    """Fetch-or-build a cached artifact keyed by ``key``.

    Artifacts are written with the store-aware codec
    (:func:`repro.store.dump_artifact`): small metadata stays in the
    pickle, while large arrays are spilled to (or referenced from) the
    mmap column store, so a cache hit maps pages instead of copying
    megabytes through the unpickler.  Old plain-pickle cache files load
    unchanged, and an unreadable artifact is rebuilt, not fatal.

    Every cache miss logs a one-line build-time summary to stderr, so the
    slow stages of a bench run are visible at a glance.
    """
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    path = cache_dir() / f"{digest}.pkl"
    if path.exists() and not refresh:
        try:
            value = load_artifact(path)
        except Exception:
            # Torn pickle or a missing/quarantined store column behind a
            # reference: treat as a miss and rebuild below.
            obs.counter("cache.load_failures").inc()
        else:
            obs.counter("cache.hits").inc()
            obs.counter("cache.hit_bytes").inc(path.stat().st_size)
            return value
    obs.counter("cache.misses").inc()
    start = time.perf_counter()
    value = build()
    elapsed = time.perf_counter() - start
    obs.histogram("cache.build_seconds", obs.SECONDS_BUCKETS).observe(elapsed)
    print(
        f"[repro.cache] built {key} in {elapsed:.1f}s ({digest}.pkl)",
        file=sys.stderr,
    )
    dump_artifact(value, path)
    obs.counter("cache.miss_bytes").inc(path.stat().st_size)
    return value


# --------------------------------------------------------------------------------------
# General-study corpus: traces, shard profiles, simulator
# --------------------------------------------------------------------------------------


@dataclasses.dataclass
class ApplicationCorpus:
    """One application's shards, their Table 1 profiles, and shard stats."""

    name: str
    profiles: List[ShardProfile]
    shard_keys: List[str]


class GeneralStudy:
    """Lazily built corpus of traces + profiles for the SPEC-like suite.

    The :class:`Simulator`'s per-shard statistics are the expensive part;
    they are built once per (application, shards, seed) and pickled.

    ``backend`` selects the timing model (``"cpu"`` or ``"gpu"``) from
    :mod:`repro.uarch.backends`; traces, shard statistics, and Table 1
    profiles are backend-independent and shared.
    """

    def __init__(self, scale: Scale, seed: int = 2012, backend: str = "cpu"):
        self.scale = scale
        self.seed = seed
        self.backend = get_backend(backend)
        self.simulator = self.backend.make_simulator()
        self._shards: Dict[str, list] = {}
        self._profiles: Dict[str, List[ShardProfile]] = {}

    # -- trace/profile access --------------------------------------------------------

    def applications(self) -> Tuple[str, ...]:
        return tuple(spec2006_suite())

    def shards(self, application: str, spec=None):
        """Shard traces of one application (generated deterministically)."""
        key = application
        if key not in self._shards:
            spec = spec or spec2006_suite()[application]
            n = self.scale.shards_per_app * SHARD_LENGTH
            trace = self._trace(application, spec, n)
            self._shards[key] = trace.shards(SHARD_LENGTH)
        return self._shards[key]

    def _trace(self, application: str, spec, n: int):
        """Generate — or memory-map — one application's full trace.

        The trace is a deterministic function of (spec, length, seed,
        shard length), so when the :mod:`repro.store` is enabled it is
        published once as a columnar ``.npy`` and mapped on every later
        request: dataset-builder workers (and repeated runs) share the
        same pages instead of each regenerating the stream.
        """
        if not store_mod.enabled():
            return generate_trace(spec, n, seed=self.seed, shard_length=SHARD_LENGTH)
        store = store_mod.Store()
        column = f"traces/{spec.name}/s{self.seed}-n{n}-l{SHARD_LENGTH}"
        try:
            data = store.get(column)
        except store_mod.StoreError:
            trace = generate_trace(spec, n, seed=self.seed, shard_length=SHARD_LENGTH)
            store.put(column, trace.data)
            try:
                data = store.get(column)
            except store_mod.StoreError:
                return trace  # read-only store dir etc.: fall back in-memory
        from repro.isa.trace import Trace

        return Trace(data, spec.name)

    def profiles(self, application: str, spec=None) -> List[ShardProfile]:
        if application not in self._profiles:
            shards = self.shards(application, spec)
            self._profiles[application] = [
                ShardProfile(application, i, p.x)
                for i, p in enumerate(
                    profile_application_shards(shards, application)
                )
            ]
        return self._profiles[application]

    def warm_stats(self, application: str) -> None:
        """Precompute simulator statistics for an application's shards."""
        self.simulator.stats_for_many(self.shards(application))

    # -- profile-record construction ------------------------------------------------

    def record(
        self, application: str, shard_index: int, config: PipelineConfig
    ) -> ProfileRecord:
        shards = self.shards(application)
        profiles = self.profiles(application)
        z = self.simulator.cpi(shards[shard_index], config)
        return ProfileRecord(
            application,
            profiles[shard_index].x,
            config.as_vector(),
            z,
            tag=f"{profiles[shard_index].key}/{config.key}",
        )

    def sample_records(
        self,
        application: str,
        configs: Sequence[PipelineConfig],
        rng: np.random.Generator,
    ) -> List[ProfileRecord]:
        """One record per config, each on a random shard of the application."""
        n_shards = len(self.shards(application))
        return [
            self.record(application, int(rng.integers(0, n_shards)), config)
            for config in configs
        ]


def profile_application_shards(shards, application: str):
    """Profile already-split shards (keeps shard indices aligned)."""
    from repro.profiling import profile_shard

    return [
        ShardProfile(application, i, profile_shard(shard))
        for i, shard in enumerate(shards)
    ]


def empty_general_dataset() -> ProfileDataset:
    return ProfileDataset(SOFTWARE_VARIABLE_NAMES, HARDWARE_VARIABLE_NAMES)


def _build_app_records(
    scale: Scale,
    seed: int,
    application: str,
    configs: Sequence[PipelineConfig],
    shard_indices: Sequence[int],
    backend: str = "cpu",
) -> List[ProfileRecord]:
    """Profile one application on pre-drawn (config, shard) pairs.

    Top-level and fully determined by its arguments, so it can run in a
    worker process: the trace generation and simulator statistics it
    rebuilds are deterministic functions of (scale, seed, application).
    """
    study = GeneralStudy(scale, seed, backend=backend)
    with obs.span("dataset.build_app"):
        shards = study.shards(application)
        profiles = study.profiles(application)
        # Group the pairs by shard so each shard's statistics feed one
        # batched CPI pass (struct-of-arrays miss model across configs);
        # records still come back in draw order, bit-identical to the
        # per-pair loop.
        by_shard: Dict[int, List[int]] = {}
        for j, shard_index in enumerate(shard_indices):
            by_shard.setdefault(int(shard_index), []).append(j)
        stats_list = study.simulator.stats_for_many(
            [shards[i] for i in sorted(by_shard)]
        )
        z = np.empty(len(configs))
        for shard_index, stats in zip(sorted(by_shard), stats_list):
            positions = by_shard[shard_index]
            cpis = study.simulator.cpi_batch_from_stats(
                stats, [configs[j] for j in positions]
            )
            z[positions] = cpis
        records = [
            ProfileRecord(
                application,
                profiles[shard_index].x,
                config.as_vector(),
                float(z[j]),
                tag=f"{profiles[shard_index].key}/{config.key}",
            )
            for j, (config, shard_index) in enumerate(zip(configs, shard_indices))
        ]
    obs.counter("dataset.records_built").inc(len(records))
    return records


def build_general_dataset(
    scale: Scale,
    seed: int = 2012,
    applications: Optional[Sequence[str]] = None,
    backend: str = "cpu",
) -> Tuple[ProfileDataset, ProfileDataset]:
    """(training, validation) datasets for the general study.

    Training: per application, ``scale.configs_per_app`` random
    architectures, each with a random shard.  Validation: an independent
    random sample of ``scale.validation_pairs`` application-architecture
    pairs.  Both are cached.

    All architecture and shard draws happen serially up front (in the
    exact order the original serial builder made them); the expensive part
    — profiling and simulating each application's shards — then fans out
    one job per application via :mod:`repro.parallel`, so the datasets are
    identical at any ``REPRO_WORKERS`` setting.

    ``backend`` selects the timing model the records' CPIs come from and
    the design space the architectures are drawn over; software profiles
    and shard statistics are shared across backends.
    """
    apps = tuple(applications or spec2006_suite())
    chosen = get_backend(backend)

    def build():
        rng = np.random.default_rng(seed)
        jobs: List[Tuple] = []
        for app in apps:
            configs = chosen.sample_configs(scale.configs_per_app, rng)
            shard_indices = [
                int(rng.integers(0, scale.shards_per_app)) for _ in configs
            ]
            jobs.append((scale, seed, app, configs, shard_indices, backend))
        per_app_val = max(1, scale.validation_pairs // len(apps))
        for app in apps:
            configs = chosen.sample_configs(per_app_val, rng)
            shard_indices = [
                int(rng.integers(0, scale.shards_per_app)) for _ in configs
            ]
            jobs.append((scale, seed, app, configs, shard_indices, backend))

        record_lists = parallel_map(
            _build_app_records_job, jobs, collect_metrics=True
        )
        train = empty_general_dataset()
        val = empty_general_dataset()
        for dataset, records in zip(
            [train] * len(apps) + [val] * len(apps), record_lists
        ):
            for record in records:
                dataset.add(record)
        return train, val

    # The CPU key is unchanged from earlier revisions so existing caches
    # stay warm; other backends get their own keyspace.
    key = f"general-dataset-v12|{scale.name}|{seed}|{','.join(apps)}"
    if backend != "cpu":
        key += f"|backend={backend}"
    return cached(key, build)


def _build_app_records_job(job) -> List[ProfileRecord]:
    """Unpack one :func:`build_general_dataset` job tuple (picklable shim)."""
    return _build_app_records(*job)


def run_genetic_search(
    dataset: ProfileDataset,
    scale: Scale,
    seed: int = 7,
    generations: Optional[int] = None,
    tag: str = "main",
    initial_population: Optional[list] = None,
):
    """Run (or recall) the genetic search on a dataset.

    ``initial_population`` (a list of :class:`~repro.core.Chromosome`)
    warm-starts the search — the hook the cross-backend transfer study
    uses to seed backend B's search with backend A's population.  Cache
    keys of warm-started runs carry a digest of the seeding chromosomes.
    """
    from repro.core import GeneticSearch

    gens = generations if generations is not None else scale.generations

    def build():
        from repro.core import chromosome_from_spec, manual_general_spec

        search = GeneticSearch(population_size=scale.population, seed=seed)
        initial = None
        if initial_population is not None:
            initial = list(initial_population)
        else:
            try:
                initial = [
                    chromosome_from_spec(manual_general_spec(), dataset.variable_names)
                ]
            except ValueError:
                pass  # non-general variable set: start fully random
        return search.run(dataset, gens, initial_population=initial)

    key = (
        f"ga-v14|{scale.name}|{seed}|{gens}|{len(dataset)}|{tag}|"
        f"{hashlib.sha256(dataset.targets().tobytes()).hexdigest()[:16]}"
    )
    if initial_population is not None:
        warm_digest = hashlib.sha256(
            repr(
                [(c.genes, sorted(c.interactions)) for c in initial_population]
            ).encode()
        ).hexdigest()[:16]
        key += f"|warm={warm_digest}"
    return cached(key, build)
