"""Integration tests: the full profile -> train -> predict -> update flow.

These exercise the same pipeline the paper's evaluation uses, end to end,
at miniature scale: synthetic traces are profiled into Table 1 vectors,
simulated on Table 2 architectures, a model is inferred, and the system is
perturbed by new software.
"""

import numpy as np
import pytest

from repro.core import (
    GeneticSearch,
    InferredModel,
    ProfileDataset,
    ProfileRecord,
    manual_general_spec,
    median_error,
    pearson_correlation,
)
from repro.profiling import SOFTWARE_VARIABLE_NAMES, profile_application
from repro.stream import StreamingRespecifier
from repro.uarch import HARDWARE_VARIABLE_NAMES, Simulator, sample_configs
from repro.workloads import (
    application_spec,
    generate_trace,
    optimization_variant,
)

SHARD = 2_000


@pytest.fixture(scope="module")
def pipeline():
    """Shared mini-corpus: 4 applications x 25 configs."""
    rng = np.random.default_rng(77)
    sim = Simulator()
    apps = ("astar", "bzip2", "hmmer", "omnetpp")
    train = ProfileDataset(SOFTWARE_VARIABLE_NAMES, HARDWARE_VARIABLE_NAMES)
    val = ProfileDataset(SOFTWARE_VARIABLE_NAMES, HARDWARE_VARIABLE_NAMES)
    shards_by_app = {}
    for app in apps:
        trace = generate_trace(application_spec(app), 5 * SHARD, seed=21, shard_length=SHARD)
        shards = trace.shards(SHARD)
        profiles = profile_application(trace, SHARD, application=app)
        shards_by_app[app] = (shards, profiles)
        for config in sample_configs(25, rng):
            i = int(rng.integers(0, len(shards)))
            record = ProfileRecord(
                app, profiles[i].x, config.as_vector(), sim.cpi(shards[i], config)
            )
            (train if rng.random() < 0.8 else val).add(record)
    return {"train": train, "val": val, "sim": sim, "shards": shards_by_app, "rng": rng}


class TestEndToEnd:
    def test_manual_model_predicts_validation(self, pipeline):
        model = InferredModel.fit(manual_general_spec(), pipeline["train"])
        score = model.score(pipeline["val"])
        assert score["median_error"] < 0.35
        assert score["correlation"] > 0.55

    def test_genetic_search_improves_on_random_start(self, pipeline):
        search = GeneticSearch(population_size=8, seed=5)
        result = search.run(pipeline["train"], generations=3)
        model = result.best_model(pipeline["train"])
        score = model.score(pipeline["val"])
        assert score["median_error"] < 0.35
        assert np.isfinite(score["correlation"])

    def test_model_ranks_architectures(self, pipeline):
        """Correlation in the optimization sense (§4.3): the model must
        rank configurations usefully for a fixed application shard."""
        rng = np.random.default_rng(3)
        sim = pipeline["sim"]
        shards, profiles = pipeline["shards"]["bzip2"]
        configs = sample_configs(15, rng)
        model = InferredModel.fit(manual_general_spec(), pipeline["train"])
        truth, predicted = [], []
        for config in configs:
            truth.append(sim.cpi(shards[0], config))
            predicted.append(model.predict_one(profiles[0].x, config.as_vector()))
        assert pearson_correlation(np.array(truth), np.array(predicted)) > 0.5

    def test_update_flow_absorbs_variant(self, pipeline):
        """§3.2's inductive step, end to end: a compiler variant of a known
        application arrives, the respecifier absorbs it under the §3.3
        policy, and predictions for the variant are usable."""
        rng = np.random.default_rng(9)
        sim = pipeline["sim"]
        train = pipeline["train"]
        respec = StreamingRespecifier(
            ProfileDataset(train.x_names, train.y_names, train.records),
            GeneticSearch(population_size=8, seed=2),
        )
        respec.bootstrap(generations=2)

        variant = optimization_variant(application_spec("bzip2"), "-O1")
        trace = generate_trace(variant, 3 * SHARD, seed=31, shard_length=SHARD)
        shards = trace.shards(SHARD)
        profiles = profile_application(trace, SHARD, application=variant.name)
        records = []
        for config in sample_configs(8, rng):
            i = int(rng.integers(0, len(shards)))
            records.append(
                ProfileRecord(
                    variant.name,
                    profiles[i].x,
                    config.as_vector(),
                    sim.cpi(shards[i], config),
                )
            )
        outcome = respec.ingest(ProfileDataset(train.x_names, train.y_names, records))
        assert outcome.action == "refresh"
        assert variant.name in respec.dataset.applications

        # Post-update predictions for held-out variant pairs are sane.
        holdout = []
        for config in sample_configs(6, rng):
            i = int(rng.integers(0, len(shards)))
            holdout.append(
                ProfileRecord(
                    variant.name,
                    profiles[i].x,
                    config.as_vector(),
                    sim.cpi(shards[i], config),
                )
            )
        probe = ProfileDataset(train.x_names, train.y_names, holdout)
        error = median_error(respec.model.predict(probe), probe.targets())
        assert error < 0.5

    def test_new_application_extrapolation_with_update(self, pipeline):
        """The §3.3 protocol in miniature: train without hmmer, absorb a
        handful of weighted hmmer profiles, predict fresh hmmer pairs.

        (Update-free extrapolation at this miniature training scale — 60
        records — is unreliable by design; the real-scale no-update claim
        is asserted by benchmarks/test_fig10_shards.py.)
        """
        rng = np.random.default_rng(13)
        sim = pipeline["sim"]
        train = pipeline["train"].without_application("hmmer")
        shards, profiles = pipeline["shards"]["hmmer"]

        def hmmer_records(n):
            records = []
            for config in sample_configs(n, rng):
                i = int(rng.integers(0, len(shards)))
                records.append(
                    ProfileRecord(
                        "hmmer", profiles[i].x, config.as_vector(),
                        sim.cpi(shards[i], config),
                    )
                )
            return records

        update = hmmer_records(8)
        combined = ProfileDataset(
            train.x_names, train.y_names, list(train.records) + update
        )
        weights = np.concatenate([np.ones(len(train)), np.full(len(update), 3.0)])
        model = InferredModel.fit(manual_general_spec(), combined, weights=weights)

        probe = ProfileDataset(train.x_names, train.y_names, hmmer_records(10))
        predictions = model.predict(probe)
        assert np.isfinite(predictions).all()
        assert median_error(predictions, probe.targets()) < 0.5


class TestSpMVIntegration:
    def test_model_guided_beats_untuned(self):
        """The whole §5 loop on one matrix: sample, fit, tune, verify."""
        from repro.spmv import (
            SpMVSpace,
            TuningSearch,
            fit_spmv_model,
            table4_matrix,
            tuning_cache_candidates,
        )

        rng = np.random.default_rng(17)
        space = SpMVSpace(table4_matrix("crystk02", seed=0))
        model = fit_spmv_model(space.sample_dataset(100, rng))
        search = TuningSearch(space, model, verify_top=3)
        caches = tuning_cache_candidates(10, rng)
        coord = search.coordinated_tuning(caches)
        assert coord.speedup > 1.5
