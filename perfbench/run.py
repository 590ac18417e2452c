"""Repo benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload cold_figures --seed 0 --seconds 55 --trace 0

Each pass of the workload runs in a fresh interpreter
(``perfbench/workloads.py``) with empty temp cache, warehouse and
checkpoint directories under ``.perfbench_tmp/`` in the checkout, and with
every ``REPRO_*`` variable cleared.  Passes run one at a time; a new pass
starts only while it is expected to end within ``--seconds`` (there is at
least one), and the run reports medians over its passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  The time
it gates on is ``wall_norm_s``: each pass's wall time rescaled to a nominal
host speed, which a reference kernel sampled during the pass measures (see
``hostref.py``).  The raw ``wall_s`` is printed next to it.  ``--trace
1`` runs traced passes and reports the per-layer metrics: mean self time
and counts per pass (see ``layers.py``), plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit.  The exit code is 1 when an output failed verification.  When
the run itself cannot finish, it exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402

#: No run may take longer than this; a run must end within 180 s.
HARD_CAP_S = 170.0
#: A run collects at least this many set-up samples; set-up-only passes
#: fill in when the timed passes gave fewer.
MIN_SETUPS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}
#: Workload-specific figures: printed by every run, and reported among the
#: per-layer metrics by the traced run.
WORKLOAD_METRICS = {
    "failed_frac": "ratio",
    "online_events_per_s": "events/s",
    "stream_events_per_s": "events/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}
BENCH_METRICS = {
    "bench.traced_wall_s": "s",
    "bench.unattributed_s": "s",
    "bench.tracing_overhead_frac": "ratio",
}
PER_LAYER_UNITS = {**LAYER_METRICS, **BENCH_METRICS, **WORKLOAD_METRICS}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a workload failure)."""


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_2DPROF_CACHE=str(tmp / "cache"),
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def run_pass(args, deadline: float, trace: bool = False, setup_only: bool = False) -> dict:
    """One pass in a fresh interpreter; returns its JSON result."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--tmp", str(tmp)]
    if args.reference is not None:
        command += ["--reference", str(args.reference)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    try:
        launch = time.monotonic()
        proc = subprocess.run(
            command + ["--launch", repr(launch)], cwd=ROOT, env=child_env(tmp),
            capture_output=True, text=True, timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish before the run's time cap: {exc}") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - launch
    return result


def run_passes(args) -> tuple[list[dict], list[float]]:
    """(passes, set-up samples) of one run."""
    start = time.monotonic()
    cap = start + HARD_CAP_S
    passes: list[dict] = []
    longest = 0.0
    while True:
        passes.append(run_pass(args, cap, trace=bool(args.trace)))
        longest = max(longest, passes[-1]["elapsed_s"])
        # Start another pass only if it should end within the run's time.
        if time.monotonic() + longest > min(start + args.seconds, cap):
            break
    setups = [p["setup_s"] for p in passes]
    while (not args.trace and len(setups) < MIN_SETUPS
           and time.monotonic() + longest < cap):
        setups.append(run_pass(args, cap, setup_only=True)["setup_s"])
    return passes, setups


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def workload_figures(passes: list[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    figures = {"failed_frac": sum(p["failed"] for p in passes) / max(1, attempted)}
    for key in ("online_events_per_s", "stream_events_per_s"):
        values = [p["extra"][key] for p in passes if key in p["extra"]]
        figures[key] = statistics.median(values) if values else 0.0
    latencies = [ms for p in passes for ms in p["extra"].get("query_ms", [])]
    figures["query_p50_ms"] = percentile(latencies, 50) if latencies else 0.0
    figures["query_p90_ms"] = percentile(latencies, 90) if latencies else 0.0
    figures["query_samples"] = len(latencies)
    return figures


def summarize(args, passes, setups) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    figures = workload_figures(passes)
    if args.trace:
        # Per-layer values are means per pass, so that self times plus
        # bench.unattributed_s still add up to bench.traced_wall_s.
        metrics = {name: sum(p["layers"][name] for p in passes) / len(passes)
                   for name in [*LAYER_METRICS, "bench.unattributed_s",
                                "bench.tracing_overhead_frac"]}
        metrics["bench.traced_wall_s"] = sum(p["wall_s"] for p in passes) / len(passes)
        metrics.update((k, figures[k]) for k in WORKLOAD_METRICS)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_norm_s": statistics.median(p["host"]["wall_norm_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END_UNITS

    kind = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} {kind} pass(es) "
          f"of wall_s {[round(p['wall_s'], 3) for p in passes]}, "
          f"{len(setups)} set-up sample(s)")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {units[name]}")
    if not args.trace:
        # The raw figures behind wall_norm_s: the median pass time and the
        # median of the reference kernel's mean time in each pass.
        print(f"  {'wall_s':36s} {statistics.median(p['wall_s'] for p in passes):16.6f} s")
        print(f"  {'host_kernel_s':36s} "
              f"{statistics.median(p['host']['kernel_s'] for p in passes):16.6f} s")
        for name, unit in WORKLOAD_METRICS.items():
            if name == "failed_frac" or figures[name]:  # the figures that apply
                print(f"  {name:36s} {figures[name]:16.6f} {unit}")
        if figures["query_samples"]:
            print(f"  ({figures['query_samples']} query samples)")
    for p in passes:
        for failure in p["failures"][:5]:
            print(f"  FAILED: {failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_figures", "sweep_serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload size (tiny: for the benchmark's own tests)")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="reference digests the outputs are checked against")
    parser.add_argument("--out", type=Path, default=None,
                        help="append {workload, seed, trace, result} as a JSON line "
                             "(input of compare.py)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes, setups = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(args, passes, setups)
    if args.out is not None:
        with args.out.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
