"""Tests for the experiment infrastructure (scales, caching, drivers, CLI)."""

import numpy as np
import pytest

from repro.experiments.common import (
    SCALES,
    GeneralStudy,
    Scale,
    build_general_dataset,
    cache_dir,
    cached,
    current_scale,
    empty_general_dataset,
)


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestScales:
    def test_three_scales(self):
        assert set(SCALES) == {"small", "bench", "full"}

    def test_full_matches_paper_counts(self):
        full = SCALES["full"]
        assert full.configs_per_app == 360     # §4.3
        assert full.population == 50           # Figure 4's "50 best models"
        assert full.generations == 20          # Figure 5
        assert full.validation_pairs == 140    # §4.3
        assert full.spmv_train == 400          # §5.3
        assert full.spmv_val == 100

    def test_default_scale_is_bench(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "bench"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert current_scale().name == "small"

    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert current_scale("full").name == "full"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            current_scale("huge")


class TestCache:
    def test_build_called_once(self, tmp_cache):
        calls = []

        def build():
            calls.append(1)
            return {"value": 42}

        a = cached("test-key", build)
        b = cached("test-key", build)
        assert a == b == {"value": 42}
        assert len(calls) == 1

    def test_different_keys_different_artifacts(self, tmp_cache):
        assert cached("key-a", lambda: 1) == 1
        assert cached("key-b", lambda: 2) == 2

    def test_refresh_rebuilds(self, tmp_cache):
        cached("key-r", lambda: 1)
        assert cached("key-r", lambda: 2, refresh=True) == 2

    def test_cache_dir_env(self, tmp_cache):
        assert str(cache_dir()) == str(tmp_cache)


class TestGeneralStudy:
    @pytest.fixture(scope="class")
    def study(self):
        scale = Scale("test", 4, 3, 6, 1, 6, 10, 5, 4)
        return GeneralStudy(scale, seed=5)

    def test_applications(self, study):
        assert len(study.applications()) == 7

    def test_shards_cached(self, study):
        a = study.shards("astar")
        b = study.shards("astar")
        assert a is b
        assert len(a) == 3

    def test_profiles_align_with_shards(self, study):
        profiles = study.profiles("astar")
        assert len(profiles) == len(study.shards("astar"))
        assert profiles[0].application == "astar"

    def test_record_construction(self, study):
        from repro.uarch import sample_configs

        rng = np.random.default_rng(0)
        config = sample_configs(1, rng)[0]
        record = study.record("astar", 0, config)
        assert record.z > 0
        assert len(record.x) == 13
        assert len(record.y) == 13

    def test_sample_records_one_per_config(self, study):
        from repro.uarch import sample_configs

        rng = np.random.default_rng(0)
        configs = sample_configs(3, rng)
        records = study.sample_records("bzip2", configs, rng)
        assert len(records) == 3


class TestBuildDataset:
    def test_shapes_and_caching(self, tmp_cache):
        scale = Scale("test", 3, 2, 6, 1, 7, 10, 5, 4)
        train, val = build_general_dataset(scale, seed=3)
        assert len(train) == 7 * 3
        assert len(val) == 7 * 1  # validation_pairs // n_apps = 1 each
        # Second call hits the cache and returns identical data.
        train2, _ = build_general_dataset(scale, seed=3)
        assert np.array_equal(train.targets(), train2.targets())

    def test_empty_dataset_variables(self):
        ds = empty_general_dataset()
        assert len(ds.x_names) == 13
        assert len(ds.y_names) == 13


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "fig16" in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig99"]) == 2

    def test_run_one(self, tmp_cache, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["fig03", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_failed_check_exits_nonzero(self, tmp_cache, capsys, monkeypatch):
        # Satellite of the retune PR: a demo whose acceptance check fails
        # (here: a drift detector that never trips) must not exit 0.
        from repro.experiments import stream_demo
        from repro.experiments.__main__ import main

        def _regressed(scale):
            scenario = {
                "steps": 2,
                "trips": 0,  # never tripped: the check must fail
                "refreshes": 2,
                "actions": ["refresh", "refresh"],
                "drift_scores": [1.0, 1.0],
                "batch_errors": [0.1, 0.1],
                "max_score": 1.0,
                "active_disagreement_gain": 1.0,
                "stats": {},
            }
            return {
                "scale": scale.name,
                "drifting": dict(scenario),
                "stationary": dict(scenario),
            }

        monkeypatch.setattr(stream_demo, "run", _regressed)
        assert main(["stream", "--scale", "small", "--report-dir", "-"]) == 1
        captured = capsys.readouterr()
        assert "FAILED check" in captured.err
        assert "never tripped" in captured.err

    def test_experiment_registry_complete(self):
        from repro.experiments.__main__ import EXPERIMENTS

        # Every paper artifact with data has a CLI entry (13 paper
        # artifacts + the ablation suite, the memory extension, the
        # serving demo, the streaming + retuning demos, and the
        # cross-backend transfer demo).
        assert len(EXPERIMENTS) == 19
        assert "transfer" in EXPERIMENTS


class TestFigureChecks:
    """Acceptance checks of the figure demos (the backend/transfer PR
    gave every headline demo a ``check()`` that must catch regressions)."""

    def _trend_result(self, **overrides):
        from repro.experiments.fig12_13_trends import TrendResult

        base = dict(
            by_brow={r: 25.0 for r in range(1, 9)},
            by_bcol={c: 25.0 for c in range(1, 9)},
            by_fill_bin={"[1.00,1.05)": 30.0, "[2.00,inf)": 16.0},
            by_line={16: 20.0, 32: 30.0, 64: 45.0, 128: 60.0},
            by_dsize={4: 24.0, 8: 24.5},
            by_dways={1: 23.0, 2: 24.2, 4: 24.4, 8: 24.3},
            by_drepl={"LRU": 24.3},
            n_samples=100,
        )
        base.update(overrides)
        return TrendResult(**base)

    def test_fig12_13_check_passes_on_paper_shapes(self):
        from repro.experiments import fig12_13_trends

        fig12_13_trends.check(self._trend_result())

    def test_fig12_13_check_catches_broken_line_trend(self):
        from repro.experiments import fig12_13_trends

        regressed = self._trend_result(
            by_line={16: 60.0, 32: 45.0, 64: 30.0, 128: 20.0}
        )
        with pytest.raises(AssertionError, match="line-size trend"):
            fig12_13_trends.check(regressed)

    def test_fig12_13_check_catches_missing_fill_penalty(self):
        from repro.experiments import fig12_13_trends

        regressed = self._trend_result(
            by_fill_bin={"[1.00,1.05)": 16.0, "[2.00,inf)": 30.0}
        )
        with pytest.raises(AssertionError, match="fill-ratio"):
            fig12_13_trends.check(regressed)

    def test_fig12_13_check_catches_associativity_cliff(self):
        from repro.experiments import fig12_13_trends

        regressed = self._trend_result(
            by_dways={1: 20.0, 2: 24.0, 4: 28.0, 8: 32.0}
        )
        with pytest.raises(AssertionError, match="associativity"):
            fig12_13_trends.check(regressed)

    def _fig14_result(self, perf_median=0.05, power_median=0.06, rho=0.95):
        from repro.core import BoxplotStats
        from repro.experiments.fig14_spmv import Fig14Result, MatrixAccuracy

        stats_p = BoxplotStats.from_errors(np.full(20, perf_median))
        stats_w = BoxplotStats.from_errors(np.full(20, power_median))
        acc = MatrixAccuracy(
            performance=stats_p,
            power=stats_w,
            performance_rho=rho,
            power_rho=rho,
        )
        return Fig14Result(
            per_matrix={"3dtube": acc, "bayer02": acc},
            median_of_medians_perf=perf_median,
            median_of_medians_power=power_median,
        )

    def test_fig14_check_passes_in_paper_band(self):
        from repro.experiments import fig14_spmv

        fig14_spmv.check(self._fig14_result())

    def test_fig14_check_catches_median_drift(self):
        from repro.experiments import fig14_spmv

        with pytest.raises(AssertionError, match="median-of-medians"):
            fig14_spmv.check(self._fig14_result(perf_median=0.15))

    def test_fig14_check_catches_correlation_collapse(self):
        from repro.experiments import fig14_spmv

        with pytest.raises(AssertionError, match="correlation collapsed"):
            fig14_spmv.check(self._fig14_result(rho=0.3))

    def test_fig14_failed_check_exits_nonzero(self, tmp_cache, capsys, monkeypatch):
        from repro.experiments import fig14_spmv
        from repro.experiments.__main__ import main

        regressed = self._fig14_result(perf_median=0.4, power_median=0.5)
        monkeypatch.setattr(fig14_spmv, "run", lambda scale: regressed)
        assert main(["fig14", "--scale", "small", "--report-dir", "-"]) == 1
        assert "FAILED check" in capsys.readouterr().err


class TestServeBootstrapCheck:
    """The serve CLI must refuse to come up on a failed bootstrap."""

    def _fake_service(self, error, backend="cpu"):
        from types import SimpleNamespace

        serving = SimpleNamespace(
            stream=SimpleNamespace(detector=SimpleNamespace(baseline=error)),
            slot=SimpleNamespace(version=1),
            stats_dict=lambda: {"backend": backend},
            close=lambda: None,
        )
        return SimpleNamespace(port=0), serving, None

    def test_unusable_bootstrap_model_exits_nonzero(self, capsys, monkeypatch):
        import repro.serve

        from repro.experiments.__main__ import main

        monkeypatch.setattr(
            repro.serve,
            "build_service",
            lambda *a, **k: self._fake_service(error=0.9),
        )
        assert main(["serve", "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert "FAILED check" in err and "steady-state" in err

    def test_lost_backend_tag_exits_nonzero(self, capsys, monkeypatch):
        import repro.serve

        from repro.experiments.__main__ import main

        monkeypatch.setattr(
            repro.serve,
            "build_service",
            lambda *a, **k: self._fake_service(error=0.01, backend="mystery"),
        )
        assert main(["serve", "--port", "0", "--backend", "gpu"]) == 1
        err = capsys.readouterr().err
        assert "FAILED check" in err and "backend tag" in err

    def test_check_accepts_healthy_bootstrap(self):
        from repro.experiments.__main__ import _check_bootstrap

        _, serving, _ = self._fake_service(error=0.01, backend="gpu")
        _check_bootstrap(serving, "gpu")


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "datacenter_scheduling.py",
            "spmv_autotuning.py",
            "model_update.py",
        ],
    )
    def test_compiles(self, script):
        import pathlib
        import py_compile

        path = pathlib.Path(__file__).resolve().parents[1] / "examples" / script
        assert path.exists()
        py_compile.compile(str(path), doraise=True)


class TestDriverSmoke:
    """End-to-end smoke runs of representative experiment drivers at a
    miniature scale (heavier drivers are exercised by benchmarks/)."""

    @pytest.fixture()
    def tiny(self):
        return Scale("tiny", 6, 3, 6, 2, 7, 40, 12, 6)

    def test_fig12_13_shapes(self, tmp_cache, tiny):
        from repro.experiments import fig12_13_trends

        result = fig12_13_trends.run(tiny, seed=99)
        assert set(result.by_brow) == set(range(1, 9))
        assert set(result.by_bcol) == set(range(1, 9))
        assert all(np.isfinite(v) for v in result.by_line.values())
        report = fig12_13_trends.report(result)
        assert "Figure 12" in report and "Figure 13" in report

    def test_fig15_grids(self, tmp_cache, tiny):
        from repro.experiments import fig15_topology

        result = fig15_topology.run(tiny, seed=99)
        assert result.profiled.shape == (8, 8)
        assert result.predicted.shape == (8, 8)
        assert -1.0 <= result.correlation <= 1.0
        assert "profiled" in fig15_topology.report(result)

    def test_fig03_report(self, tmp_cache, tiny):
        from repro.experiments import fig03_variance

        result = fig03_variance.run(tiny, seed=99)
        assert len(result.sums) == 7 * tiny.shards_per_app
        assert "histogram" in fig03_variance.report(result)


class TestExampleFiveCompiles:
    def test_adaptive_reconfiguration_compiles(self):
        import pathlib
        import py_compile

        path = (
            pathlib.Path(__file__).resolve().parents[1]
            / "examples"
            / "adaptive_reconfiguration.py"
        )
        assert path.exists()
        py_compile.compile(str(path), doraise=True)
