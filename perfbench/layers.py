"""Per-layer self time and counts, measured from outside the program.

:class:`LayerRecorder` wraps the public entry points of each pipeline
layer (the VM, predictor replay, the 2D fold, the store, the service
client, ...) and attributes wall time to them.  A layer's *self* time is
the duration of its wrapped calls minus the time spent in wrapped
callees, so the self times of all layers plus the unattributed residual
add up to the traced wall time.

Nothing under ``src/`` is changed.  A function is replaced in every
loaded module that binds it by name (``simulate`` is imported into both
``repro.core.experiment`` and ``repro.sweep.runner``), a method is
replaced on its class, and :meth:`LayerRecorder.uninstall` puts every
original back.  A target whose module or attribute no longer exists is
skipped, so its layer reads zero instead of breaking the benchmark.

One global call stack is kept for all threads.  That attributes the
streaming server's work (which runs on its own thread while the client
blocks in a request) to the client call that caused it.  It assumes the
threads take turns, which holds for the request-reply service protocol.
"""

from __future__ import annotations

import fnmatch
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: Every per-layer metric the traced run reports, with its unit.  Layers
#: the workload never reaches read zero.
LAYER_METRICS = {
    "vm.batch.run_lanes_s": "s",
    "vm.batch.lanes": "count",
    "vm.batch.lanes_withdrawn": "count",
    "vm.batch.guest_insns": "count",
    "vm.machine.trace_s": "s",
    "vm.machine.callback_s": "s",
    "vm.machine.none_s": "s",
    "vm.guest_insns": "count",
    "vm.branch_events": "count",
    "predictors.replay.gshare_s": "s",
    "predictors.replay.perceptron_s": "s",
    "predictors.replay.other_s": "s",
    "predictors.replay.events": "count",
    "predictors.reference_fallbacks": "count",
    "core.profiler2d.fold_s": "s",
    "core.groundtruth_s": "s",
    "core.experiment.cache_io_s": "s",
    "core.experiment.cache_hits": "count",
    "core.experiment.cache_misses": "count",
    "lang.compile_s": "s",
    "workloads.make_input_s": "s",
    "analysis.rows_s": "s",
    "sweep.population_s": "s",
    "store.ingest_s": "s",
    "store.ingest_calls": "count",
    "store.read_s": "s",
    "store.reads": "count",
    "service.open_s": "s",
    "service.send_s": "s",
    "service.frames": "count",
    "service.checkpoint_s": "s",
    "service.close_s": "s",
    "triage.bisect_s": "s",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _machine_layer(args, kwargs) -> str:
    mode = _arg(args, kwargs, 2, "mode", "none")
    return f"vm.machine.{mode}_s"


def _machine_counts(result, args, kwargs) -> dict:
    return {"vm.guest_insns": result.instructions, "vm.branch_events": result.branches}


def _batch_counts(result, args, kwargs) -> dict:
    lanes = len(_arg(args, kwargs, 1, "input_sets", ()))
    if result is None:  # BatchFallback: every lane goes back to the serial VM
        return {"vm.batch.lanes": lanes, "vm.batch.lanes_withdrawn": lanes}
    insns = sum(r.instructions for r in result.results if r is not None)
    return {
        "vm.batch.lanes": lanes,
        "vm.batch.lanes_withdrawn": len(result.fallback_lanes),
        "vm.batch.guest_insns": insns,
    }


def _replay_layer(args, kwargs) -> str:
    kind = type(_arg(args, kwargs, 0, "predictor")).__name__.lower()
    if kind not in ("gshare", "perceptron"):
        kind = "other"
    return f"predictors.replay.{kind}_s"


def _replay_counts(result, args, kwargs) -> dict:
    return {"predictors.replay.events": len(_arg(args, kwargs, 1, "trace"))}


def _cache_counts(result, args, kwargs) -> dict:
    outcome = _arg(args, kwargs, 0, "outcome")
    return {f"core.experiment.cache_{outcome}": 1}


def _calls(name: str) -> Callable:
    return lambda result, args, kwargs: {name: 1}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``where`` is ``"module:function"``, ``"module:Class.method"`` or a
    ``"module:pattern*"`` glob over the module's functions.  ``layer``
    names the ``*_s`` metric that gets the self time (a callable picks it
    from the call's arguments); ``None`` counts without timing.
    ``counts`` maps (result, args, kwargs) to counter increments.
    """

    where: str
    layer: str | Callable | None
    counts: Callable | None = None


TARGETS = (
    Target("repro.vm.batch:BatchMachine.run_lanes", "vm.batch.run_lanes_s", _batch_counts),
    Target("repro.vm.machine:Machine.run", _machine_layer, _machine_counts),
    Target("repro.predictors.simulate:simulate", _replay_layer, _replay_counts),
    Target("repro.predictors.simulate:simulate_reference", None,
           _calls("predictors.reference_fallbacks")),
    Target("repro.core.profiler2d:profile_trace", "core.profiler2d.fold_s"),
    Target("repro.core.groundtruth:ground_truth", "core.groundtruth_s"),
    Target("repro.trace.trace:BranchTrace.save", "core.experiment.cache_io_s"),
    Target("repro.trace.trace:BranchTrace.load", "core.experiment.cache_io_s"),
    Target("repro.core.experiment:ExperimentRunner._save_sim", "core.experiment.cache_io_s"),
    Target("repro.core.experiment:ExperimentRunner._load_sim", "core.experiment.cache_io_s"),
    Target("repro.core.experiment:ExperimentRunner._count_cache", None, _cache_counts),
    Target("repro.lang.compiler:compile_source", "lang.compile_s"),
    Target("repro.workloads.base:Workload.make_input", "workloads.make_input_s"),
    Target("repro.analysis.tables:*_rows", "analysis.rows_s"),
    Target("repro.analysis.whatif:whatif_rows", "analysis.rows_s"),
    Target("repro.analysis.timeseries:figure8_series", "analysis.rows_s"),
    Target("repro.sweep.runner:run_sweep", "sweep.population_s"),
    Target("repro.sweep.report:population_report_from_store", "sweep.population_s"),
    Target("repro.store.warehouse:ProfileWarehouse.ingest", "store.ingest_s",
           _calls("store.ingest_calls")),
    Target("repro.store.warehouse:ProfileWarehouse.open_run", "store.read_s",
           _calls("store.reads")),
    Target("repro.store.queries:reclassify", "store.read_s", _calls("store.reads")),
    Target("repro.store.queries:diff_runs", "store.read_s", _calls("store.reads")),
    Target("repro.store.queries:join_runs", "store.read_s", _calls("store.reads")),
    Target("repro.store.queries:StoredRun.site_series", "store.read_s", _calls("store.reads")),
    Target("repro.store.queries:StoredRun.window_counts", "store.read_s", _calls("store.reads")),
    Target("repro.triage:triage_runs", "triage.bisect_s"),
    Target("repro.service.client:StreamingClient.open_session", "service.open_s"),
    Target("repro.service.client:StreamingClient.send_events", "service.send_s",
           _calls("service.frames")),
    Target("repro.service.client:StreamingClient.checkpoint", "service.checkpoint_s"),
    Target("repro.service.client:StreamingClient.close_session", "service.close_s"),
)


class LayerRecorder:
    """Install wrappers, accumulate self time and counts, then restore."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls = 0
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._stack: list[list] = []
        self._restore: list[Callable[[], None]] = []

    # -- accounting ----------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        layer, counts = target.layer, target.counts

        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            frame = None
            if name is not None:
                frame = [name, 0.0]
                with self._lock:
                    self._stack.append(frame)
                started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if frame is not None:
                    self._close(frame, time.perf_counter() - started)
                increments = counts(result, args, kwargs) if counts is not None else {}
                with self._lock:
                    self.calls += 1
                    for key, value in increments.items():
                        self.counts[key] += value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _close(self, frame: list, duration: float) -> None:
        with self._lock:
            # Normally the top of the stack; search by identity in case
            # two threads did overlap.
            index = next(i for i in range(len(self._stack) - 1, -1, -1)
                         if self._stack[i] is frame)
            del self._stack[index]
            if index:
                self._stack[index - 1][1] += duration
            self.self_s[frame[0]] += duration - frame[1]

    # -- install / uninstall -------------------------------------------

    def install(self) -> "LayerRecorder":
        for target in self.targets:
            module_name, _, attr = target.where.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target.where)
                continue
            if "*" in attr:
                names = sorted(name for name, value in vars(module).items()
                               if fnmatch.fnmatch(name, attr) and callable(value)
                               and getattr(value, "__module__", None) == module_name)
                for name in names:
                    self._patch_function(module, name, target)
            elif "." in attr:
                self._patch_method(module, attr, target)
            else:
                self._patch_function(module, attr, target)
        return self

    def _patch_function(self, module, name: str, target: Target) -> None:
        original = vars(module).get(name)
        if original is None:
            self.missing.append(target.where)
            return
        wrapper = self._wrap(original, target)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(other, key, wrapper)
                    self._restore.append(
                        lambda o=other, k=key: setattr(o, k, original))

    def _patch_method(self, module, attr: str, target: Target) -> None:
        class_name, _, method = attr.partition(".")
        cls = vars(module).get(class_name)
        raw = vars(cls).get(method) if isinstance(cls, type) else None
        if raw is None:
            self.missing.append(target.where)
            return
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, target))
        else:
            replacement = self._wrap(raw, target)
        setattr(cls, method, replacement)
        self._restore.append(lambda: setattr(cls, method, raw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerRecorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value (zero for layers not reached)."""
        values = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS.items()}
        for source in (self.self_s, self.counts):
            values.update((k, v) for k, v in source.items() if k in LAYER_METRICS)
        return values

    def overhead_s(self, samples: int = 20000) -> float:
        """Estimated time the wrappers added: calls times the cost of one.

        The cost of one wrapped call is measured here, on a no-op, because
        run-to-run noise between a traced and an untraced pass is far
        larger than the wrappers' cost.
        """
        probe = LayerRecorder(targets=())

        def noop(*args, **kwargs):
            return None

        wrapped = probe._wrap(noop, Target("probe:noop", "probe_s", _calls("probe")))
        started = time.perf_counter()
        for _ in range(samples):
            noop(None, None)
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            wrapped(None, None)
        cost = max(0.0, (time.perf_counter() - started - bare) / samples)
        return self.calls * cost

    def attributed_s(self) -> float:
        """Self time summed over the reported layers."""
        return sum(v for k, v in self.self_s.items() if k in LAYER_METRICS)
