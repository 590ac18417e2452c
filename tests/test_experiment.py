"""Tests for the experiment runner: caching, derived results, and the
incremental input-set machinery.
"""

import numpy as np
import pytest

from repro.core.experiment import ExperimentRunner, SuiteConfig, default_cache_dir


class TestCaching:
    def test_trace_cached_in_memory(self, tiny_runner):
        first = tiny_runner.trace("mcfish", "train")
        second = tiny_runner.trace("mcfish", "train")
        assert first is second

    def test_trace_cached_on_disk(self, tiny_runner, tmp_path):
        trace = tiny_runner.trace("mcfish", "train")
        fresh = ExperimentRunner(
            SuiteConfig(scale=tiny_runner.config.scale, cache_dir=tiny_runner.config.cache_dir)
        )
        loaded = fresh.trace("mcfish", "train")
        assert np.array_equal(loaded.sites, trace.sites)

    def test_simulation_cached_roundtrip(self, tiny_runner):
        sim = tiny_runner.simulation("mcfish", "train", "bimodal")
        fresh = ExperimentRunner(
            SuiteConfig(scale=tiny_runner.config.scale, cache_dir=tiny_runner.config.cache_dir)
        )
        loaded = fresh.simulation("mcfish", "train", "bimodal")
        assert loaded.overall_accuracy == pytest.approx(sim.overall_accuracy)
        assert np.array_equal(loaded.correct, sim.correct)

    def test_scale_separates_cache_entries(self, tiny_runner):
        path_a = tiny_runner._trace_path("mcfish", "train")
        other = ExperimentRunner(SuiteConfig(scale=0.5, cache_dir=tiny_runner.config.cache_dir))
        path_b = other._trace_path("mcfish", "train")
        assert path_a != path_b

    def test_disk_cache_can_be_disabled(self, tmp_path):
        runner = ExperimentRunner(
            SuiteConfig(scale=0.02, cache_dir=tmp_path / "c", use_disk_cache=False)
        )
        runner.trace("mcfish", "train")
        assert not (tmp_path / "c").exists()

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_2DPROF_CACHE", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"


class TestDerivedResults:
    def test_profile_2d_runs(self, tiny_runner):
        report = tiny_runner.profile_2d("vortexish")
        assert report.profiled_sites()
        assert 0.0 < report.overall_accuracy <= 1.0

    def test_ground_truth_default_is_ref(self, tiny_runner):
        truth = tiny_runner.ground_truth("vortexish")
        assert truth.universe

    def test_ground_truth_captures_named_inputs_serially(self, tmp_path, monkeypatch):
        # Named inputs (train/ref/ext-k) go through per-artifact serial
        # capture; the batch VM is reserved for input-population sweeps.
        from repro.vm.batch import BatchMachine

        def refuse(*args, **kwargs):
            raise AssertionError("named inputs must not reach the batch VM")

        monkeypatch.setattr(BatchMachine, "run_lanes", refuse)
        runner = ExperimentRunner(SuiteConfig(scale=0.02, cache_dir=tmp_path / "cache"))
        truth = runner.ground_truth("gapish", others=["ref", "ext-1"])
        assert truth.universe

    def test_evaluate_produces_metrics(self, tiny_runner):
        metrics = tiny_runner.evaluate("vortexish")
        row = metrics.as_row()
        assert set(row) == {"COV-dep", "ACC-dep", "COV-indep", "ACC-indep"}

    def test_cross_predictor_evaluation(self, tiny_runner):
        metrics = tiny_runner.evaluate(
            "vortexish", profiler_predictor="bimodal", target_predictor="gshare"
        )
        assert metrics.true_dep + metrics.true_indep == len(
            tiny_runner.ground_truth("vortexish", "gshare").universe
        )

    def test_dependent_fractions_in_range(self, tiny_runner):
        dynamic, static = tiny_runner.dependent_fractions("vortexish")
        assert 0.0 <= dynamic <= 1.0
        assert 0.0 <= static <= 1.0


class TestIncrementalInputSets:
    def test_deep_workload_steps(self, tiny_runner):
        lists = tiny_runner.incremental_input_sets("gzipish")
        assert lists[0] == ["ref"]
        assert lists[1] == ["ref", "ext-1"]
        assert lists[-1] == ["ref"] + [f"ext-{i}" for i in range(1, 7)]

    def test_shallow_workload_single_step(self, tiny_runner):
        assert tiny_runner.incremental_input_sets("mcfish") == [["ref"]]

    def test_union_monotone_in_practice(self, tiny_runner):
        previous = -1
        for others in tiny_runner.incremental_input_sets("gapish")[:3]:
            truth = tiny_runner.ground_truth("gapish", "bimodal", others)
            assert len(truth.dependent) >= previous
            previous = len(truth.dependent)


class TestWarehouseIntegration:
    def test_warehouse_requires_configuration(self, tiny_runner):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="warehouse_dir"):
            tiny_runner.warehouse

    def test_profile_2d_auto_ingests(self, tiny_runner, tmp_path):
        from repro.store import ProfileWarehouse

        runner = ExperimentRunner(SuiteConfig(
            scale=tiny_runner.config.scale,
            cache_dir=tiny_runner.config.cache_dir,
            warehouse_dir=tmp_path / "wh",
        ))
        report = runner.profile_2d("mcfish", "bimodal")
        # keep_series is forced on so the matrix can be stored.
        assert report.series is not None

        warehouse = ProfileWarehouse(tmp_path / "wh", create=False)
        records = warehouse.runs("mcfish", "train", "bimodal")
        assert len(records) == 1
        assert records[0].source == "experiment" and records[0].has_counts

        # A repeat profile dedupes instead of appending.
        runner.profile_2d("mcfish", "bimodal")
        assert len(warehouse.runs()) == 1
