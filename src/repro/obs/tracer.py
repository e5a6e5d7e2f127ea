"""Process/thread-aware tracing core.

The tracer records *spans* (named intervals with nesting) and *instant
events* on :func:`time.perf_counter_ns`, tagged with the recording
process id and native thread id.  ``perf_counter`` is CLOCK_MONOTONIC on
Linux, so timestamps taken in different processes of one run share a
time base and per-worker traces can be stitched into a single timeline.

Design constraints, in order:

1. **Disabled tracing must cost nothing.**  The module-level current
   tracer defaults to :data:`NULL_TRACER`, whose methods allocate no
   event objects and whose ``span`` returns one shared no-op context
   manager.  Instrumentation sites guard any argument construction with
   ``tracer.enabled`` so a disabled run pays one attribute check per
   site.
2. **A hard-killed worker must leave a post-mortem.**  A worker's
   tracer writes every event to a :class:`JsonlSink` instead of memory,
   one unbuffered write per event, so SIGKILL loses no event whose
   recording call returned (only a span still open at the kill, which
   has not been recorded yet).  The sink file exists from the moment the
   worker starts.
3. **Worker processes activate themselves.**  The one observability
   bootstrap (:mod:`repro.obs.bootstrap`) installs a sink tracer in
   every supervised worker of a session that asked for a trace; the
   session then stitches the parent's in-memory events and every
   worker's ``<role>-<pid>.jsonl`` into one Chrome trace.

Events use the Chrome trace-event dictionary shape directly (``ph: X``
complete events with microsecond ``ts``/``dur``, ``ph: i`` instants), so
export is concatenation, not translation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

DEFAULT_SAMPLE_EVERY = 4096
"""Default sampling period for high-frequency counter events (SAT
conflicts/propagations): one instant per this many counts."""


class _NullSpan:
    """Shared no-op context manager returned by the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False

    def add(self, **args: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, cat: str = "task", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "task", **args: Any) -> None:
        return None

    def sample(self, name: str, count: int, cat: str = "task", **args: Any) -> None:
        return None

    def events(self) -> List[Dict[str, Any]]:
        return []

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()


class _Span:
    """One live span; records a Chrome ``X`` (complete) event on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, *_exc: object) -> bool:
        end = time.perf_counter_ns()
        if exc_type is not None:
            self._args["aborted"] = True
        self._tracer._emit(
            {
                "name": self._name,
                "cat": self._cat,
                "ph": "X",
                "ts": self._start // 1000,
                "dur": max(0, (end - self._start) // 1000),
                "pid": self._tracer.pid,
                "tid": threading.get_native_id(),
                "args": self._args,
            }
        )
        return False

    def add(self, **args: Any) -> None:
        """Attach result arguments to the span before it closes."""
        self._args.update(args)


class JsonlSink:
    """Append-only JSONL event sink: each event is one unbuffered write,
    so it reaches the file before :meth:`write` returns."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "ab", buffering=0)

    def write(self, event: Dict[str, Any]) -> None:
        self._fh.write((json.dumps(event, separators=(",", ":")) + "\n").encode())

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - defensive
            pass


class Tracer:
    """Span/instant event recorder for one process.

    Thread-safe: spans may open and close concurrently on any thread;
    each event carries the native thread id of its recording thread.
    Events go to ``sink`` when one is given (a worker process) and to an
    in-memory list otherwise (the session's parent).
    """

    enabled = True

    def __init__(
        self,
        *,
        sink: Optional[JsonlSink] = None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ):
        self.pid = os.getpid()
        self.sample_every = max(1, sample_every)
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._sink = sink
        self._sample_marks: Dict[Any, int] = {}

    # -- recording ------------------------------------------------------
    def span(self, name: str, cat: str = "task", **args: Any) -> _Span:
        """Open a span; use as ``with tracer.span("ic3.propagate"): ...``."""
        return _Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "task", **args: Any) -> None:
        """Record a zero-duration instant event."""
        self._emit(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": time.perf_counter_ns() // 1000,
                "s": "t",
                "pid": self.pid,
                "tid": threading.get_native_id(),
                "args": args,
            }
        )

    def sample(self, name: str, count: int, cat: str = "task", **args: Any) -> None:
        """Emit an instant only when ``count`` crosses a sampling bucket.

        For monotonically growing counters (conflicts, propagations):
        one event per ``sample_every`` counts per thread, so hot loops
        stay hot while the trace still shows progress rates.
        """
        bucket = count // self.sample_every
        key = (threading.get_native_id(), name)
        if self._sample_marks.get(key) == bucket:
            return
        self._sample_marks[key] = bucket
        self.instant(name, cat=cat, count=count, **args)

    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.write(event)
            else:
                self._events.append(event)

    # -- access / lifecycle ---------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        """A snapshot of the in-memory events (empty with a sink)."""
        with self._lock:
            return list(self._events)

    def close(self) -> None:
        """Flush and close the sink, if any."""
        if self._sink is not None:
            self._sink.close()


# ----------------------------------------------------------------------
# The per-process current tracer
# ----------------------------------------------------------------------
_current: Any = NULL_TRACER


def get_tracer() -> Any:
    """The process's current tracer (:data:`NULL_TRACER` when disabled)."""
    return _current


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide current tracer."""
    global _current
    _current = tracer
    return tracer


def uninstall() -> Any:
    """Disable tracing; returns the tracer that was installed."""
    global _current
    previous = _current
    _current = NULL_TRACER
    return previous
