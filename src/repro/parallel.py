"""Deterministic process-level parallelism for the experiment pipeline.

The paper parallelizes its embarrassingly parallel inner loops with R's
doMC (§4.2); this module is the Python equivalent used by the genetic
search, the dataset builders, and the SpMV experiment drivers.

Design rules that keep every result identical at any worker count:

* all randomness is drawn (or seeded) *serially* before any fan-out —
  workers receive data or seeds, never a shared generator;
* :func:`parallel_map` / :func:`parallel_starmap` preserve input order, so
  reductions see results in the same order the serial loop would produce;
* worker counts come from one place (:func:`resolve_workers`), so
  ``REPRO_WORKERS`` uniformly controls the whole pipeline;
* job arguments backed by the :mod:`repro.store` mmap column store are
  shipped as tiny column references instead of pickled arrays (see
  :func:`_swizzle_jobs`) — workers re-map the same pages, the results
  are unchanged;
* metrics recorded by jobs (``repro.obs``) aggregate deterministically:
  on every pool path each job runs against a fresh registry in its
  worker, and the per-job snapshots are merged back into the parent's
  registry **in input order** — so counters and histograms are identical
  to a serial run for any worker split (property-tested in
  ``tests/test_obs.py``).

``REPRO_WORKERS`` semantics: unset or empty means serial (1); ``0`` or
``auto`` means one worker per CPU; any other integer is used as given
(minimum 1).

**Supervised mode** (``supervised=True``, or ``REPRO_SUPERVISED=1``)
additionally survives worker failure: jobs run on a
:class:`concurrent.futures.ProcessPoolExecutor`, and when a worker dies
(SIGKILL, ``os._exit``, OOM — surfaced as ``BrokenProcessPool``) or hangs
past ``timeout_s``, the pool is torn down and only the unfinished jobs
are resubmitted to a fresh one, up to ``max_attempts`` rounds.  Because
jobs are pure functions of their arguments and results/metrics are
slotted by input index, a run that loses workers returns bit-identical
results (and obs counters) to an undisturbed or serial run — this is the
substrate the genetic search's fitness evaluation rides on, and what the
killed-worker chaos tests exercise.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

WORKERS_ENV = "REPRO_WORKERS"
SUPERVISED_ENV = "REPRO_SUPERVISED"

#: Resubmission rounds before a supervised run declares the work impossible.
DEFAULT_MAX_ATTEMPTS = 4


class WorkerFailure(RuntimeError):
    """Supervised jobs kept dying/hanging past the resubmission budget."""


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """Worker count: explicit argument wins, then ``$REPRO_WORKERS``, then 1.

    ``0`` (or ``auto`` in the environment variable) selects the CPU count.
    """
    if n_workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip().lower()
        if raw == "":
            return 1
        if raw == "auto":
            n_workers = 0
        else:
            try:
                n_workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"${WORKERS_ENV} must be an integer or 'auto', got {raw!r}"
                ) from None
    if n_workers == 0:
        n_workers = multiprocessing.cpu_count()
    return max(1, int(n_workers))


def resolve_supervised(supervised: Optional[bool] = None) -> bool:
    """Supervised-mode switch: explicit argument wins, then
    ``$REPRO_SUPERVISED`` (``1``/``true``/``on``), default off."""
    if supervised is not None:
        return bool(supervised)
    return os.environ.get(SUPERVISED_ENV, "").strip().lower() in ("1", "true", "on")


def chunk_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` independent child seeds derived from ``base_seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, so the children are
    statistically independent of each other *and* of the parent stream —
    handing seed *i* to job *i* gives identical results however the jobs
    are distributed over workers.
    """
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(child.generate_state(1)[0]) for child in children]


def _thawed_call(fn, frozen: bytes):
    """Worker shim for swizzled jobs: resolve store references, then call."""
    from repro.store.artifacts import thaw

    return fn(*thaw(frozen))


def _swizzle_jobs(fn, jobs: List[tuple]) -> tuple:
    """Replace store-backed arrays in job arguments with column references.

    When the trace/dataset store is enabled and this process holds at
    least one mapping, each job's argument tuple is frozen with the
    store-aware pickler: arrays living in the store cross the pool
    boundary as (root, key, offset) references and are re-mapped in the
    worker — the processes share pages instead of shipping copies.
    Arguments not backed by the store pickle by value exactly as before,
    and when the store is disabled (or nothing is mapped) jobs are passed
    through untouched.
    """
    from repro import store

    if not (store.enabled() and store.any_mapped()):
        return fn, jobs
    from repro.store.artifacts import freeze

    # No parent-side counter here: swizzling is transport, and a metric
    # recorded only on the parallel path would break the "pool metrics ==
    # serial metrics" invariant.  Store traffic is still visible through
    # store.refs_frozen / store.maps.
    return _thawed_call, [(fn, freeze(args)) for args in jobs]


def _collected_call(job) -> tuple:
    """Run one job against a fresh metrics registry (worker shim).

    Isolation matters under the default ``fork`` start method: the child's
    global registry is a *copy* of the parent's, so snapshotting it
    directly would re-count everything the parent had already recorded.
    """
    from repro import obs

    fn, args = job
    with obs.collect() as registry:
        result = fn(*args)
    return result, registry.snapshot()


def _run_pool(fn, arg_tuples, workers: int, chunksize: int) -> list:
    from repro import obs

    jobs = [(fn, args) for args in arg_tuples]
    with multiprocessing.Pool(min(workers, len(jobs))) as pool:
        outcomes = pool.map(_collected_call, jobs, chunksize=chunksize)
    results = []
    for result, snapshot in outcomes:  # merge in input order: deterministic
        obs.merge(snapshot)
        results.append(result)
    return results


# -- supervised execution --------------------------------------------------------------


def _supervised_call(job: tuple) -> tuple:
    """Worker shim for supervised jobs.

    Passes through the ``parallel.job`` fault site (so chaos plans can
    kill/raise/delay inside the worker), then runs the job against a
    fresh registry exactly like :func:`_collected_call`.
    """
    from repro import faults

    faults.site("parallel.job")
    return _collected_call(job)


def _kill_pool(executor: ProcessPoolExecutor) -> None:
    """Forcibly stop an executor whose workers are hung or dead."""
    processes = list(getattr(executor, "_processes", {}).values())
    for process in processes:
        if process.is_alive():
            process.kill()
    executor.shutdown(wait=True, cancel_futures=True)


def _run_supervised(
    fn,
    arg_tuples: Sequence[tuple],
    workers: int,
    timeout_s: Optional[float],
    max_attempts: int,
) -> list:
    """Run jobs with dead/hung-worker detection and resubmission.

    Results land in input-index slots, and metric snapshots are merged in
    input order only after every job has succeeded, so any pattern of
    worker deaths aggregates to exactly the serial outcome.
    """
    from repro import obs

    outcomes: List[Optional[tuple]] = [None] * len(arg_tuples)
    pending = list(range(len(arg_tuples)))
    attempt = 0
    while pending:
        attempt += 1
        if attempt > max_attempts:
            raise WorkerFailure(
                f"{len(pending)} job(s) still unfinished after "
                f"{max_attempts} rounds of worker failures"
            )
        executor = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
        futures = {}
        broken = False
        try:
            for index in pending:
                futures[executor.submit(_supervised_call, (fn, arg_tuples[index]))] = index
        except BrokenProcessPool:
            broken = True
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        not_done = set(futures)
        while not_done and not broken:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                obs.counter("parallel.hung_workers").inc()
                broken = True
                break
            done, not_done = wait(
                not_done, timeout=remaining, return_when=FIRST_COMPLETED
            )
            if not done:  # hung: nothing completed within the budget
                obs.counter("parallel.hung_workers").inc()
                broken = True
                break
            for future in done:
                index = futures[future]
                try:
                    outcomes[index] = future.result()
                except BrokenProcessPool:
                    obs.counter("parallel.worker_deaths").inc()
                    broken = True
                except BaseException:
                    # The job itself failed — that is the caller's bug (or
                    # an injected `raise`), not infrastructure loss: stop
                    # the pool and propagate instead of retrying.
                    _kill_pool(executor)
                    raise
        if broken:
            _kill_pool(executor)
        else:
            executor.shutdown(wait=True)
        pending = [i for i in range(len(arg_tuples)) if outcomes[i] is None]
        if pending and broken:
            obs.counter("parallel.resubmissions").inc(len(pending))
    results = []
    for result, snapshot in outcomes:
        obs.merge(snapshot)
        results.append(result)
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_workers: Optional[int] = None,
    chunksize: int = 1,
    supervised: Optional[bool] = None,
    timeout_s: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> List[R]:
    """Order-preserving map over a process pool.

    Serial (plain loop, no pool, no pickling) when the resolved worker
    count is 1 or there is at most one item.  ``fn`` must be a module-level
    callable for the parallel path.  Metrics the jobs record via
    :mod:`repro.obs` are shipped back as per-job snapshots and merged into
    this process's registry in input order, as if the jobs had run here.
    ``supervised`` (default ``$REPRO_SUPERVISED``) detects dead/hung
    workers and resubmits their jobs; see the module docstring.
    """
    workers = resolve_workers(n_workers)
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    return parallel_starmap(
        fn,
        [(item,) for item in items],
        n_workers=workers,
        chunksize=chunksize,
        supervised=supervised,
        timeout_s=timeout_s,
        max_attempts=max_attempts,
    )


def parallel_starmap(
    fn: Callable[..., R],
    arg_tuples: Iterable[tuple],
    n_workers: Optional[int] = None,
    chunksize: int = 1,
    supervised: Optional[bool] = None,
    timeout_s: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> List[R]:
    """:func:`parallel_map` for functions of several arguments."""
    workers = resolve_workers(n_workers)
    jobs = list(arg_tuples)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*args) for args in jobs]
    fn, jobs = _swizzle_jobs(fn, jobs)
    if resolve_supervised(supervised):
        return _run_supervised(fn, jobs, workers, timeout_s, max_attempts)
    return _run_pool(fn, jobs, workers, chunksize)
