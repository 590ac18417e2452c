"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins with
cold module-level memos (``Workload._program``) and empty temp caches::

    python3 perfbench/workloads.py --workload cold_figures --seed 0 \\
        --launch <time.monotonic() at spawn> --tmp <empty dir> [--trace] [--setup-only]

The pass sets up (imports, temp directories and, for the online half of
``sweep_serve``, prebuilt traces and a warehouse), runs the timed region,
then verifies the outputs outside the timed region.  During the timed
region of an untraced pass, the host probe of ``hostref.py`` samples the
host's speed; its own time is left out of every interval the pass
reports.  The last line of stdout is one JSON object with the pass's
timings, operation counts and failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload sizes.  ``full`` is what BENCHMARK.json runs; ``tiny`` keeps the
#: benchmark's own tests short.  ``cold_figures`` has one size: a cold
#: report costs about the same at any scale below 0.01 because inputs
#: stop shrinking at their minimum length.
SIZES = {
    "full": {
        "cold_figures": {"scale": 0.01},
        "sweep_serve": {
            "population_sweep": {
                "populations": [("gapish", 128, 0.015), ("gzipish", 16, 0.02)]},
            "online_serve": {
                "programs": ["gapish", "gzipish", "gccish", "craftyish"],
                "scale": 0.05, "store_scale": 0.03, "stream_reps": 8,
                "batch": 1024, "checkpoint_every": 16, "query_rounds": 8,
            },
        },
    },
    "tiny": {
        "cold_figures": {"scale": 0.01},
        "sweep_serve": {
            "population_sweep": {"populations": [("gapish", 8, 0.01), ("gzipish", 4, 0.01)]},
            "online_serve": {
                "programs": ["gapish", "gzipish"],
                "scale": 0.02, "store_scale": 0.02, "stream_reps": 1, "batch": 512,
                "checkpoint_every": 4, "query_rounds": 1,
            },
        },
    },
}


#: The host probe of an untraced pass (see ``hostref.py``), while it runs.
PROBE = None


def clock() -> float:
    """``time.perf_counter()`` less the time the host probe has taken so far.

    Intervals measured with it leave out the probe's interruptions.
    """
    return time.perf_counter() - (PROBE.spent_s if PROBE is not None else 0.0)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_sections(text: bytes) -> list[bytes]:
    """The report split at its ``## `` section headings (preamble first)."""
    return text.split(b"\n## ")


class Outcome:
    """Operation counts, failures and recorded digests of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict = {}

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.failures.append(what)


# ----------------------------------------------------------------------
# cold_figures: the whole figure/table report from an empty cache
# ----------------------------------------------------------------------


class ColdFigures:
    """``repro-2dprof report`` on a fresh runner with an empty cache."""

    def __init__(self, params: dict, seed: int, tmp: Path):
        from repro.analysis import reportgen
        from repro.core.experiment import ExperimentRunner, SuiteConfig

        self.reportgen = reportgen
        self.scale = params["scale"]
        self.runner = ExperimentRunner(
            SuiteConfig(scale=self.scale, cache_dir=tmp / "cache", jobs=1))
        self.out = tmp / "report.md"
        self.error = None

    def run(self) -> dict:
        try:
            self.reportgen.write_report(self.runner, self.out)
        except Exception:
            self.error = traceback.format_exc(limit=3)
        return {}

    def close(self) -> None:
        pass

    def verify(self, reference: dict, outcome: Outcome) -> None:
        key = f"cold_figures@s{self.scale:g}"
        expected = reference.get(key, [])
        if self.error is not None:
            outcome.check(False, f"write_report raised: {self.error}", max(1, len(expected)))
            return
        digests = [sha256(s) for s in report_sections(self.out.read_bytes())]
        outcome.digests[key] = digests
        for i in range(max(len(expected), len(digests))):
            got = digests[i] if i < len(digests) else None
            want = expected[i] if i < len(expected) else None
            outcome.check(got is not None and got == want,
                          f"report section {i} digest {got} != reference {want}")


# ----------------------------------------------------------------------
# population_sweep: batch capture of two seeded populations + read-back
# ----------------------------------------------------------------------


class PopulationSweep:
    """``run_sweep`` of a convergent and a divergent population, then reports."""

    def __init__(self, params: dict, seed: int, tmp: Path):
        import repro.sweep as sweep
        from repro.store import ProfileWarehouse

        self.sweep = sweep
        self.seed = seed
        self.specs = [
            sweep.PopulationSpec(workload=wl, base_input="ref", size=size,
                                 seed=seed, scale=scale)
            for wl, size, scale in params["populations"]
        ]
        self.warehouse = ProfileWarehouse(tmp / "warehouse")
        self.results: list = []
        self.reports: list = []
        self.error = None

    def run(self) -> dict:
        try:
            for spec in self.specs:
                self.results.append(self.sweep.run_sweep(spec, warehouse=self.warehouse))
            for spec in self.specs:
                self.reports.append(
                    self.sweep.population_report_from_store(self.warehouse, spec.tag))
        except Exception:
            self.error = traceback.format_exc(limit=3)
        return {}

    def close(self) -> None:
        pass

    def verify(self, reference: dict, outcome: Outcome) -> None:
        from repro.core.profiler2d import profile_trace
        from repro.predictors import make_predictor, simulate
        from repro.service.protocol import serialize_report
        from repro.trace.capture import capture_trace
        from repro.workloads import get_workload

        if self.error is not None:
            outcome.check(False, f"sweep raised: {self.error}",
                          sum(spec.size for spec in self.specs))
            return
        rng = random.Random(self.seed)
        for spec, result, report in zip(self.specs, self.results, self.reports):
            blob = json.dumps(report.to_json(), sort_keys=True).encode()
            digest = sha256(blob)
            outcome.digests[spec.tag] = digest
            expected = reference.get(spec.tag)
            if expected is None:
                # No recorded digest for this seed: the stored report must
                # at least equal the one built from the live sweep result.
                live = json.dumps(self.sweep.population_report(result).to_json(),
                                  sort_keys=True).encode()
                outcome.check(live == blob, f"{spec.tag}: stored report != live report",
                              spec.size - 1)
            else:
                outcome.check(digest == expected,
                              f"{spec.tag}: report digest {digest} != reference {expected}",
                              spec.size - 1)
            # One sampled lane re-captured on the serial (reference) VM.
            lane = result.lanes[rng.randrange(spec.size)]
            input_set = self.sweep.generate_population(spec)[lane.lane]
            trace = capture_trace(get_workload(spec.workload).program(), input_set)
            sim = simulate(make_predictor(result.predictor), trace)
            serial = profile_trace(trace, simulation=sim, config=lane.report.config)
            outcome.check(
                len(trace) == lane.events and trace.instructions == lane.instructions
                and serialize_report(serial) == serialize_report(lane.report),
                f"{spec.tag}: lane {lane.lane} differs from serial capture")


# ----------------------------------------------------------------------
# online half: callback profiling, streaming service, warehouse reads
# ----------------------------------------------------------------------


class OnlineServe:
    """Fig. 16-style callback profiling, a streamed session mix, then reads."""

    def __init__(self, params: dict, seed: int, tmp: Path):
        import repro.store as store
        import repro.triage as triage
        from repro.core.profiler2d import OnlineProfilerTool, ProfilerConfig, profile_trace
        from repro.predictors import make_predictor, simulate
        from repro.service.client import StreamingClient, stream_simulation
        from repro.service.server import ServerThread
        from repro.trace.capture import capture_trace
        from repro.vm.machine import Machine
        from repro.workloads import get_workload

        self.store, self.triage = store, triage
        self.Machine, self.OnlineProfilerTool = Machine, OnlineProfilerTool
        self.make_predictor, self.stream_simulation = make_predictor, stream_simulation
        self.params = params
        self.scale = params["scale"]
        self.warehouse = store.ProfileWarehouse(tmp / "warehouse")

        # The train input at ``scale`` feeds the callback-mode profiles and
        # the streams.  The stored gshare profiles of train and ref come from
        # runs at the smaller ``store_scale``, which keeps set-up short.
        self.programs: dict[str, dict] = {}
        for name in params["programs"]:
            workload = get_workload(name)
            program = workload.program()
            train = workload.make_input("train", self.scale)
            trace = capture_trace(program, train)
            info = {"program": program, "train": train, "trace": trace,
                    "gshare": simulate(make_predictor("gshare"), trace),
                    "sims": {}, "runs": {}}
            for input_name in ("train", "ref"):
                stored = capture_trace(
                    program, workload.make_input(input_name, params["store_scale"]))
                sim = simulate(make_predictor("gshare"), stored)
                report = profile_trace(stored, simulation=sim,
                                       config=ProfilerConfig(keep_series=True))
                run_id = self.warehouse.ingest(
                    report, workload=name, input_name=input_name, predictor="gshare",
                    scale=params["store_scale"], sim=sim)
                info["sims"][input_name] = sim
                info["runs"][input_name] = (
                    run_id, sorted(report.input_dependent_sites()),
                    sorted(report.profiled_sites()), len(report.series))
            info["callback_config"] = ProfilerConfig().resolve(total_branches=len(trace))
            info["stream_config"] = ProfilerConfig(keep_series=True).resolve(
                total_branches=len(trace))
            self.programs[name] = info

        self.plan = self._plan_queries(random.Random(seed), params["query_rounds"])
        self.server = ServerThread(checkpoint_dir=tmp / "checkpoints",
                                   warehouse_dir=tmp / "warehouse").start()
        self.client = StreamingClient("127.0.0.1", self.server.port)
        self.callback_reports: list = []
        self.stream_reports: list = []
        self.latencies_ms: list[float] = []
        self.query_errors: list[str] = []
        self.errors: list[str] = []

    def _plan_queries(self, rng: random.Random, rounds: int) -> list[tuple]:
        """A seeded read mix whose composition does not depend on the seed.

        No record of real read traffic exists to weight the kinds by, so
        the mix is an even split: each round reads every stored run once
        with each kind; the pair reads (join, diff, triage) pair the run
        with the same program's other stored run.  The seed picks
        thresholds, sites, windows and the order.
        """
        plan = []
        for _ in range(rounds):
            for name in sorted(self.programs):
                runs = self.programs[name]["runs"]
                for input_name, other in (("train", "ref"), ("ref", "train")):
                    run_id, _dep, profiled, n_slices = runs[input_name]
                    lo = rng.randrange(n_slices)
                    plan += [
                        ("reclassify", (run_id, rng.uniform(0.02, 0.08), rng.uniform(0.02, 0.1))),
                        ("site_series", (run_id, rng.choice(profiled))),
                        ("window_counts", (run_id, lo, rng.randrange(lo, n_slices) + 1)),
                    ]
                    plan += [(kind, (run_id, runs[other][0]))
                             for kind in ("join_runs", "diff_runs", "triage_runs")]
        rng.shuffle(plan)
        return plan

    def _query(self, kind: str, args: tuple) -> None:
        store, warehouse = self.store, self.warehouse
        if kind == "reclassify":
            run_id, std_th, pam_th = args
            store.reclassify(warehouse.open_run(run_id), std_th=std_th, pam_th=pam_th)
        elif kind == "site_series":
            warehouse.open_run(args[0]).site_series(args[1])
        elif kind == "window_counts":
            warehouse.open_run(args[0]).window_counts(args[1], args[2])
        elif kind == "join_runs":
            store.join_runs(warehouse.open_run(args[0]), warehouse.open_run(args[1]))
        elif kind == "diff_runs":
            store.diff_runs(warehouse.open_run(args[0]), [warehouse.open_run(args[1])])
        else:
            self.triage.triage_runs(warehouse, args[0], args[1])

    def run(self) -> dict:
        started = clock()
        events = 0
        for name, info in self.programs.items():
            try:
                tool = self.OnlineProfilerTool(self.make_predictor("gshare"),
                                               info["program"].num_sites,
                                               info["callback_config"])
                result = self.Machine(info["program"]).run(
                    info["train"], mode="callback", hook=tool.on_branch)
                events += result.branches
                self.callback_reports.append((name, tool.finish()))
            except Exception:
                self.callback_reports.append((name, None))
                self.errors.append(f"callback {name}: {traceback.format_exc(limit=3)}")
        profiled = clock()

        streamed = 0
        batch, every = self.params["batch"], self.params["checkpoint_every"]
        for rep in range(self.params["stream_reps"]):
            for name, info in self.programs.items():
                trace = info["trace"]
                correct = info["gshare"].correct
                session = f"{name}-{rep}"
                meta = {"workload": name, "input": f"train.{rep}", "predictor": "gshare",
                        "scale": self.scale}
                common = dict(batch_size=batch, checkpoint_every=every,
                              num_sites=trace.num_sites, meta=meta)
                try:
                    self.stream_simulation(self.client, session, trace.sites, correct,
                                           info["stream_config"],
                                           stop_after=len(trace) // 2, **common)
                    self.stream_simulation(self.client, session, trace.sites, correct,
                                           info["stream_config"], resume=True, **common)
                    reply = self.client.close_session(session)
                    self.stream_reports.append((name, reply["report"], reply["warehouse_run"]))
                    streamed += len(trace)
                except Exception:
                    self.stream_reports.append((name, None, None))
                    self.errors.append(f"stream {session}: {traceback.format_exc(limit=3)}")
        stream_end = clock()

        for kind, args in self.plan:
            t0 = clock()
            try:
                self._query(kind, args)
            except Exception:
                self.query_errors.append(f"{kind}{args}: {traceback.format_exc(limit=3)}")
            self.latencies_ms.append((clock() - t0) * 1e3)
        return {
            "online_events_per_s": events / (profiled - started),
            "stream_events_per_s": streamed / (stream_end - profiled),
            "query_ms": self.latencies_ms,
        }

    def verify(self, reference: dict, outcome: Outcome) -> None:
        from repro.core.groundtruth import ground_truth
        from repro.core.profiler2d import profile_trace
        from repro.service.protocol import serialize_report

        for error in self.errors:
            outcome.failures.append(error)
        for error in self.query_errors:
            outcome.check(False, error)
        outcome.attempted += len(self.plan) - len(self.query_errors)

        for name, info in self.programs.items():
            trace, sim = info["trace"], info["gshare"]
            offline = profile_trace(trace, simulation=sim, config=info["callback_config"])
            for profiled_name, online in self.callback_reports:
                if profiled_name == name:
                    outcome.check(online is not None
                                  and serialize_report(online) == serialize_report(offline),
                                  f"{name}: callback-mode report != offline profile_trace")
            offline_stream = json.loads(json.dumps(serialize_report(
                profile_trace(trace, simulation=sim, config=info["stream_config"]))))
            for stream_name, report, run_id in self.stream_reports:
                if stream_name == name:
                    outcome.check(report == offline_stream and run_id is not None,
                                  f"{name}: streamed+resumed report != offline")
            for run_id, dependent, _profiled, _n in info["runs"].values():
                stored = self.store.reclassify(self.warehouse.open_run(run_id))
                outcome.check(stored["input_dependent"] == dependent,
                              f"{run_id}: reclassify != stored verdicts")
            diff = self.store.diff_runs(self.warehouse.open_run(info["runs"]["train"][0]),
                                        [self.warehouse.open_run(info["runs"]["ref"][0])])
            live = ground_truth(info["sims"]["train"], [info["sims"]["ref"]])
            outcome.check(diff == live, f"{name}: diff_runs != ground_truth")

    def close(self) -> None:
        self.client.close()
        self.server.drain()


class SweepServe:
    """A population sweep, then the online side, in one pass.

    Both halves are short, and run-to-run noise on a shared host shrinks
    with the time a run measures, so they share one workload: one pass of
    about 15 s instead of two of about 8 s, each with its own set-up.
    """

    def __init__(self, params: dict, seed: int, tmp: Path):
        self.parts = [PopulationSweep(params["population_sweep"], seed, tmp / "sweep"),
                      OnlineServe(params["online_serve"], seed, tmp / "online")]

    def run(self) -> dict:
        extra: dict = {}
        for part in self.parts:
            extra.update(part.run())
        return extra

    def verify(self, reference: dict, outcome: Outcome) -> None:
        for part in self.parts:
            part.verify(reference, outcome)

    def close(self) -> None:
        for part in self.parts:
            part.close()


WORKLOADS = {"cold_figures": ColdFigures, "sweep_serve": SweepServe,
             # The sweep half alone: make_reference.py records its digests
             # without running the online half.
             "population_sweep": PopulationSweep}


def workload_params(size: str, workload: str) -> dict:
    sizes = SIZES[size]
    return sizes[workload] if workload in sizes else sizes["sweep_serve"][workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--reference", type=Path, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hostref import NOMINAL_KERNEL_S, HostProbe, block_in_new_threads

    block_in_new_threads()  # the streaming server's thread never runs the probe
    workload = WORKLOADS[args.workload](workload_params(args.size, args.workload),
                                        args.seed, args.tmp)
    recorder = None
    if args.trace:
        from layers import LayerRecorder

        recorder = LayerRecorder().install()
    setup_s = time.monotonic() - args.launch
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Untraced passes sample the host's speed during the timed region; the
    # probe's own time is taken out of wall_s.  Traced passes leave it off,
    # so that layer self times add up to the traced wall time.
    global PROBE
    probe = PROBE = None if args.trace else HostProbe().start()
    started = clock()
    extra = workload.run()
    wall_s = clock() - started
    host = None
    if probe is not None:
        probe.stop()
        kernel_s = probe.kernel_s()
        host = {"kernel_s": kernel_s, "probes": len(probe.samples),
                "probe_s": probe.spent_s,
                "wall_norm_s": wall_s * NOMINAL_KERNEL_S / kernel_s}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if recorder is not None:
        recorder.uninstall()
        layers = recorder.metrics()
        layers["bench.unattributed_s"] = wall_s - recorder.attributed_s()
        overhead = recorder.overhead_s()
        layers["bench.tracing_overhead_frac"] = overhead / (wall_s - overhead)

    reference = {}
    if args.reference is not None and args.reference.is_file():
        reference = json.loads(args.reference.read_text())
    outcome = Outcome()
    workload.verify(reference, outcome)
    workload.close()
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures, "digests": outcome.digests,
        "extra": extra, "layers": layers, "host": host,
        "modules": sorted(m for m in sys.modules if m.startswith("repro.")),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
