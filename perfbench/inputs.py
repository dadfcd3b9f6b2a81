"""Generator-side inputs: rows to predict, stationary and drift observations.

Everything here is a deterministic function of the benchmark seed and runs
in the load generator's set-up; the program only ever receives the
resulting rows and records.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from perfbench import config
from repro.experiments.common import SHARD_LENGTH, GeneralStudy, Scale
from repro.profiling import profile_shard
from repro.uarch import Simulator, get_backend
from repro.workloads import generate_trace, random_behavior_spec

Record = Dict[str, object]


def _record(app: str, x, y, z) -> Record:
    return {"app": app, "x": [float(v) for v in x], "y": [float(v) for v in y], "z": float(z)}


def stationary_records(seed: int, per_app: int) -> Dict[str, List[Record]]:
    """Fresh observations of the same seven applications, from another seed.

    The traces come from a different generator seed than the served
    model's training set, and the architectures are drawn independently,
    so these records are held out yet stationary.
    """
    scale = Scale(
        "perfbench-stationary",
        configs_per_app=per_app,
        shards_per_app=config.STATIONARY_SHARDS,
        population=4,
        generations=1,
        validation_pairs=0,
        spmv_train=0,
        spmv_val=0,
        tuning_caches=0,
    )
    study_seed = 10_000 + seed
    study = GeneralStudy(scale, seed=study_seed)
    rng = np.random.default_rng(study_seed)
    backend = get_backend("cpu")
    out = {}
    for app in study.applications():
        records = study.sample_records(app, backend.sample_configs(per_app, rng), rng)
        out[app] = [_record(app, r.x, r.y, r.z) for r in records]
    return out


def drift_application(rng: np.random.Generator, name: str, n_records: int) -> List[Record]:
    """Records of a newly generated application (spec -> trace -> profile -> simulate)."""
    spec = random_behavior_spec(rng, name=name)
    trace = generate_trace(
        spec,
        config.DRIFT_SHARDS * SHARD_LENGTH,
        seed=int(rng.integers(0, 2**31)),
        shard_length=SHARD_LENGTH,
    )
    shards = trace.shards(SHARD_LENGTH)
    profiles = [profile_shard(shard) for shard in shards]
    simulator = Simulator()
    stats = simulator.stats_for_many(shards)
    out = []
    for hw in get_backend("cpu").sample_configs(n_records, rng):
        i = int(rng.integers(0, len(shards)))
        out.append(_record(name, profiles[i], hw.as_vector(), simulator.cpi_from_stats(stats[i], hw)))
    return out


def rows_of(records: List[Record]) -> np.ndarray:
    """Feature rows in the model's variable order (software, then hardware)."""
    return np.array([r["x"] + r["y"] for r in records], dtype=float)


def median_relative_error(model, records: List[Record]) -> float:
    targets = np.array([r["z"] for r in records])
    predictions = model.predict_rows(rows_of(records))
    return float(np.median(np.abs(predictions - targets) / np.abs(targets)))
