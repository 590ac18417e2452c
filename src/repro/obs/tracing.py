"""Span tracer: nested wall/CPU-timed spans, exportable as a Chrome trace.

One process-wide :class:`Tracer` records *spans* — context-managed
intervals with a name, category, and free-form attributes — into a
bounded in-memory ring buffer.  The buffer serializes to the Chrome
trace-event JSON format (``{"traceEvents": [...]}``), which Perfetto and
``chrome://tracing`` open directly; spans from worker processes merge
into the same buffer via :mod:`repro.obs.spool`, each keeping its own
``pid`` so the viewer shows one track per process.

The tracer is **disabled by default** and the disabled path is a single
attribute check returning a shared no-op span, so hot loops can be
instrumented unconditionally:

    with get_tracer().span("replay.vectorized", cat="replay") as sp:
        ...
        sp.set("events", n)

Timestamps are wall-clock (``time.time_ns``) so spans recorded by
different processes on one machine line up on a common axis; durations
and CPU time come from the higher-resolution per-process clocks.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Iterable

#: Default ring-buffer capacity (finished spans + instants retained).
DEFAULT_CAPACITY = 200_000


def _new_id() -> str:
    """A 64-bit random hex id (trace/span correlation token)."""
    return os.urandom(8).hex()


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass


_NOOP = _NoopSpan()

_tls = threading.local()


def _span_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class Span:
    """One live span; becomes a Chrome ``"X"`` (complete) event on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_ts_ns", "_t0", "_cpu0",
                 "parent", "trace_id", "span_id")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.parent: str | None = None
        self.trace_id: str | None = None
        self.span_id: str | None = None

    def set(self, key: str, value) -> None:
        """Attach/overwrite one attribute on the span."""
        self.args[key] = value

    def __enter__(self) -> "Span":
        stack = _span_stack()
        if stack:
            self.parent = stack[-1].name
            self.trace_id = stack[-1].trace_id
        else:
            self.trace_id = _new_id()
        self.span_id = _new_id()
        stack.append(self)
        self._ts_ns = time.time_ns()
        self._t0 = time.perf_counter_ns()
        self._cpu0 = time.thread_time_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        dur_ns = time.perf_counter_ns() - self._t0
        stack = _span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        args = self.args
        args["cpu_ms"] = round((time.thread_time_ns() - self._cpu0) / 1e6, 3)
        args["trace_id"] = self.trace_id
        args["span_id"] = self.span_id
        if self.parent is not None:
            args["parent"] = self.parent
        self._tracer._record({
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self._ts_ns / 1e3,          # Chrome trace wants microseconds.
            "dur": max(dur_ns, 0) / 1e3,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": args,
        })
        return False


class Tracer:
    """Process-wide span recorder with a bounded ring buffer."""

    def __init__(self, enabled: bool = False, capacity: int = DEFAULT_CAPACITY):
        self.enabled = enabled
        self._events: deque = deque(maxlen=capacity)

    # -- recording ------------------------------------------------------

    def span(self, name: str, cat: str = "app", **attrs) -> "Span | _NoopSpan":
        """A context-managed span (the shared no-op while disabled)."""
        if not self.enabled:
            return _NOOP
        return Span(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "app", **attrs) -> None:
        """A zero-duration point event."""
        if not self.enabled:
            return
        self._record({
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "p",
            "ts": time.time_ns() / 1e3,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": attrs,
        })

    def add_span(self, name: str, ts_us: float, dur_us: float,
                 cat: str = "app", **attrs) -> None:
        """Record a completed interval measured outside a context manager
        (e.g. a session's open-to-close lifetime)."""
        if not self.enabled:
            return
        self._record({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts_us,
            "dur": max(dur_us, 0.0),
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": attrs,
        })

    def add_chrome_events(self, events: Iterable[dict]) -> int:
        """Merge pre-built Chrome trace events (worker spool) into the buffer.

        Unlike :meth:`span`, this works even while the tracer is disabled
        so a parent that only wants ``--metrics-json`` still aggregates
        correctly; the events simply stay unexported.
        """
        n = 0
        for event in events:
            self._record(event)
            n += 1
        return n

    def _record(self, event: dict) -> None:
        self._events.append(event)

    # -- lifecycle ------------------------------------------------------

    def configure(self, enabled: bool | None = None, capacity: int | None = None) -> None:
        if capacity is not None and capacity != self._events.maxlen:
            self._events = deque(self._events, maxlen=capacity)
        if enabled is not None:
            self.enabled = enabled

    def clear(self) -> None:
        self._events.clear()

    def drain(self) -> list[dict]:
        """Return and remove every buffered event."""
        events = list(self._events)
        self._events.clear()
        return events

    def events(self) -> list[dict]:
        """A snapshot of the buffered events (oldest first)."""
        return list(self._events)

    # -- export ---------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The full Chrome trace-event document (with process metadata)."""
        events = self.events()
        own_pid = os.getpid()
        metadata = []
        for pid in sorted({e["pid"] for e in events if "pid" in e}):
            role = "parent" if pid == own_pid else "worker"
            metadata.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro-2dprof {role} (pid {pid})"},
            })
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def export(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()) + "\n")
        return path


#: The process-wide tracer used by all instrumentation hooks.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def configure(enabled: bool | None = None, capacity: int | None = None) -> Tracer:
    """Configure and return the process-wide tracer."""
    _TRACER.configure(enabled=enabled, capacity=capacity)
    return _TRACER
