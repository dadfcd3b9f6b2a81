#!/usr/bin/env python
"""System dynamics: automatic model updates as new software arrives.

The paper's §3.2-§3.3 inductive flow, live, on the respecifier every
served model runs, with its default ``DriftConfig()`` (the §3.3 policy):

* a steady-state system has profiled a benchmark suite and trained model M;
* a *familiar* newcomer (a fresh job running known software) arrives:
  its predictions are already accurate, so it is absorbed by a cheap
  coefficient refresh;
* a *novel* newcomer (FP-heavy bwaves, deliberately excluded from the
  boot-strap suite) arrives: predictions miss.  The drift window pools
  every application's recent profiles, and once it holds the 10 profiles
  the paper prescribes, a median error above 1.5x the steady-state error
  re-specifies and refits the model;
* after the update, the newcomer's predictions are re-checked.

Exits non-zero unless the familiar job schedules no re-specification and
bwaves schedules exactly one.
"""

import sys

import numpy as np

from repro.core import GeneticSearch, ProfileDataset, ProfileRecord
from repro.profiling import SOFTWARE_VARIABLE_NAMES, profile_application
from repro.stream import StreamingRespecifier
from repro.uarch import HARDWARE_VARIABLE_NAMES, Simulator, sample_configs
from repro.workloads import application_spec, generate_trace

SHARD_LENGTH = 5_000
BOOTSTRAP_APPS = ("astar", "bzip2", "gemsFDTD", "hmmer", "omnetpp", "sjeng")


def profile_records(app_name, spec, simulator, configs, rng, seed=11):
    trace = generate_trace(spec, 6 * SHARD_LENGTH, seed=seed, shard_length=SHARD_LENGTH)
    shards = trace.shards(SHARD_LENGTH)
    profiles = profile_application(trace, SHARD_LENGTH, application=app_name)
    records = []
    for config in configs:
        i = int(rng.integers(0, len(shards)))
        records.append(
            ProfileRecord(
                app_name, profiles[i].x, config.as_vector(),
                simulator.cpi(shards[i], config),
            )
        )
    return records


def observe(respec, records):
    """Ingest one batch of profiles and report what the policy did."""
    batch = ProfileDataset(respec.dataset.x_names, respec.dataset.y_names, records)
    pooled = min(respec.detector.fill + len(batch), respec.drift_config.window)
    outcome = respec.ingest(batch)
    print(
        f"   median error {outcome.batch_error:.1%}, drift score "
        f"{outcome.drift_score:.2f} over {pooled} pooled profiles "
        f"-> {outcome.action}"
    )


def main() -> int:
    rng = np.random.default_rng(8)
    simulator = Simulator()

    print("1. boot-strapping the steady state (6 applications, no bwaves)")
    dataset = ProfileDataset(SOFTWARE_VARIABLE_NAMES, HARDWARE_VARIABLE_NAMES)
    for app in BOOTSTRAP_APPS:
        records = profile_records(
            app, application_spec(app), simulator, sample_configs(40, rng), rng
        )
        dataset.extend(records)

    respec = StreamingRespecifier(dataset, GeneticSearch(population_size=16, seed=3))
    respec.bootstrap(generations=4)
    print(f"   steady-state mean error: {respec.detector.baseline:.1%}")

    # Paper, footnote 3: "a new application could arise from new jobs,
    # input data, or code optimizations."  The mildest case is a new *job*:
    # a fresh dynamic instance of known software.
    print("2. familiar perturbation: a new sjeng job (same code, new run)")
    observe(
        respec,
        profile_records("sjeng-job2", application_spec("sjeng"), simulator,
                        sample_configs(6, rng), rng, seed=21),
    )
    familiar_respecs = respec.respecs

    print("3. novel perturbation: bwaves (the paper's outlier) arrives")
    bwaves = application_spec("bwaves")
    print("   first 6 profiles:")
    observe(
        respec,
        profile_records("bwaves", bwaves, simulator, sample_configs(6, rng), rng, seed=22),
    )
    print("   8 more profiles (the re-specification cleared the window):")
    observe(
        respec,
        profile_records("bwaves", bwaves, simulator, sample_configs(8, rng), rng, seed=23),
    )
    novel_respecs = respec.respecs - familiar_respecs

    print("4. post-update check on fresh bwaves pairs")
    probe_records = profile_records(
        "bwaves", bwaves, simulator, sample_configs(10, rng), rng, seed=24
    )
    probe = ProfileDataset(dataset.x_names, dataset.y_names, probe_records)
    score = respec.model.score(probe)
    print(
        f"   median error {score['median_error']:.1%}, "
        f"correlation {score['correlation']:.3f}"
    )
    print(
        "   (bwaves remains harder than interpolation — §4.5 — but the "
        "update pulled it into a usable range)"
    )

    if familiar_respecs != 0 or novel_respecs != 1:
        print(
            f"FAILED check: sjeng scheduled {familiar_respecs} re-specifications "
            f"(want 0), bwaves {novel_respecs} (want 1)",
            file=sys.stderr,
        )
        return 1
    print("OK: the familiar job was absorbed, bwaves re-specified once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
