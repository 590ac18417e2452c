"""Tests of the repo benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

The ``cold_figures`` cases take about a minute each: a cold report has a
floor of tens of seconds at any scale.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*extra: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def run_child(workload: str, tmp_path: Path, *extra: str) -> dict:
    """One pass of ``workloads.py`` in a fresh interpreter."""
    import time

    from run import child_env

    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", "0", "--size", "tiny", "--tmp", str(tmp_path),
         "--reference", str(HERE / "reference.json"),
         "--launch", repr(time.monotonic()), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
        env=child_env(tmp_path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_and_verifies(workload, trace):
    proc, result = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
    for name in expected:  # every metric is also printed by name with its unit
        assert f"  {name} " in proc.stdout


def test_corrupted_reference_digest_counts_as_failed(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    tag = "sweep:gapish:ref~0x8@s0.01"
    reference[tag] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    proc, result = run_bench("--workload", "sweep_serve", "--seed", "0",
                             "--seconds", "1", "--size", "tiny",
                             "--reference", str(corrupted))
    assert proc.returncode == 1, proc.stderr
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert f"FAILED: {tag}: report digest" in proc.stdout


@pytest.mark.parametrize("workload", ["sweep_serve"])
def test_self_times_plus_residual_equal_traced_wall(workload, tmp_path):
    from layers import LAYER_METRICS

    result = run_child(workload, tmp_path, "--trace")
    layers = result["layers"]
    self_times = [layers[name] for name, unit in LAYER_METRICS.items() if unit == "s"]
    assert all(t >= 0 for t in self_times)
    assert layers["bench.unattributed_s"] >= -1e-6
    total = sum(self_times) + layers["bench.unattributed_s"]
    assert total == pytest.approx(result["wall_s"], rel=1e-9)
    assert sum(self_times) > 0.5 * result["wall_s"]


def test_host_probe_time_is_left_out_of_the_pass(tmp_path):
    from hostref import NOMINAL_KERNEL_S

    result = run_child("sweep_serve", tmp_path)
    host = result["host"]
    assert host["probes"] >= 1 and host["probe_s"] > 0
    assert host["wall_norm_s"] == pytest.approx(
        result["wall_s"] * NOMINAL_KERNEL_S / host["kernel_s"], rel=1e-12)


def test_host_probe_samples_without_nesting():
    import time

    from hostref import HostProbe

    probe = HostProbe(period=0.05).start()
    end = time.perf_counter() + 1.0
    while time.perf_counter() < end:
        sum(range(1000))
    probe.stop()
    # One-shot re-arming: a kernel call never overlaps the next one.
    assert 2 <= len(probe.samples) <= 1.0 / 0.05
    assert probe.spent_s >= sum(probe.samples)
    assert probe.kernel_s() == pytest.approx(sum(probe.samples) / len(probe.samples))


@pytest.mark.parametrize("workload", WORKLOADS[1:])
def test_workloads_do_not_import_fleet_or_telemetry(workload, tmp_path):
    modules = run_child(workload, tmp_path)["modules"]
    assert not [m for m in modules if m.startswith(("repro.fleet", "repro.obs.telemetry"))]


def test_layer_wrapper_restores_and_tolerates_missing_layers():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import importlib

    import repro.core.experiment as experiment
    from repro.vm.machine import Machine
    from layers import LayerRecorder, Target, TARGETS

    # The package re-exports ``simulate``, which shadows the submodule name.
    simulate_mod = importlib.import_module("repro.predictors.simulate")
    original_simulate = simulate_mod.simulate
    original_run = Machine.__dict__["run"]
    targets = TARGETS + (Target("repro.vm.gone:Batch.run", "vm.batch.run_lanes_s"),
                         Target("repro.vm.machine:Nothing.run", "vm.machine.trace_s"))
    with LayerRecorder(targets) as recorder:
        assert experiment.simulate is not original_simulate
        assert experiment.simulate is simulate_mod.simulate
        assert Machine.__dict__["run"] is not original_run
    assert experiment.simulate is original_simulate
    assert simulate_mod.simulate is original_simulate
    assert Machine.__dict__["run"] is original_run
    assert "repro.vm.gone:Batch.run" in recorder.missing
    assert recorder.metrics()["vm.batch.run_lanes_s"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("--workload", "sweep_serve", "--seed", "0",
                             "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def _records(path: Path, workload: str, walls: list[float], failed: int = 0) -> Path:
    with path.open("w") as fh:
        for seed, wall in enumerate(walls):
            metrics = {m["name"]: {"value": wall if m["name"] == "wall_norm_s" else 1.0,
                                   "unit": m["unit"]} for m in SPEC["end_to_end"]}
            result = {"correct": not failed, "attempted": 10, "failed": failed,
                      "metrics": metrics}
            fh.write(json.dumps({"workload": workload, "seed": seed, "trace": 0,
                                 "result": result}) + "\n")
    return path


@pytest.mark.parametrize("change, status", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], "unchanged"),
    ([14.0, 14.1, 13.9, 14.0, 14.05], "regressed"),
])
def test_compare_reports_one_row_per_workload(tmp_path, change, status):
    workload = WORKLOADS[0]
    parent = _records(tmp_path / "parent.jsonl", workload, [10.0, 10.1, 9.9, 10.0, 10.05])
    changed = _records(tmp_path / "change.jsonl", workload, change)
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), "compare",
                           str(parent), str(changed)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == (1 if status == "regressed" else 0)
    rows = dict(line.split() for line in proc.stdout.strip().splitlines()[-len(WORKLOADS):])
    assert rows[workload] == status
    assert all(rows[w] == "unresolved" for w in WORKLOADS[1:])  # no runs


def test_compare_wide_parent_spread_is_unresolved(tmp_path):
    workload = WORKLOADS[0]
    parent = _records(tmp_path / "parent.jsonl", workload, [6.0, 10.0, 14.0, 8.0, 12.0])
    changed = _records(tmp_path / "change.jsonl", workload, [10.0, 10.5, 9.5, 10.2, 9.8])
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), "compare",
                           str(parent), str(changed)],
                          capture_output=True, text=True, timeout=60)
    assert f"{workload:18s} unresolved" in proc.stdout


def test_compare_failed_verification_is_regressed(tmp_path):
    workload = WORKLOADS[0]
    walls = [10.0, 10.1, 9.9, 10.0, 10.05]
    parent = _records(tmp_path / "parent.jsonl", workload, walls)
    changed = _records(tmp_path / "change.jsonl", workload, [w * 0.9 for w in walls],
                       failed=1)
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), "compare",
                           str(parent), str(changed)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert f"{workload:18s} regressed" in proc.stdout
    failed_row = next(line for line in proc.stdout.splitlines()
                      if line.split()[:2] == [workload, "failed_frac"])
    assert failed_row.split()[2:4] == ["0.0000", "0.1000"]
