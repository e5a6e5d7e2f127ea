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
2. **A hard-killed worker must leave a post-mortem.**  Two mechanisms:
   a :class:`JsonlSink` appends events incrementally (flushing every
   ``flush_every`` events, so at most that many are lost to SIGKILL),
   and an optional bounded *flight recorder* ring keeps the last
   ``ring_capacity`` events and rewrites them to ``flight_path``
   (atomically, via rename) every ``flight_every`` events — after a
   kill the last snapshot survives.
3. **Worker processes activate themselves.**  When the environment
   variable :data:`TRACE_DIR_ENV` names a directory, worker entry
   points call :func:`maybe_install_worker_tracer` and write
   ``<role>-<pid>.jsonl`` (plus ``flight-<role>-<pid>.jsonl``) into it;
   the parent's :func:`trace_session` sets the variable, runs the
   workload, then stitches every per-worker file into one Chrome trace.

Events use the Chrome trace-event dictionary shape directly (``ph: X``
complete events with microsecond ``ts``/``dur``, ``ph: i`` instants), so
export is concatenation, not translation.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

TRACE_DIR_ENV = "REPRO_TRACE_DIR"
"""Environment variable through which a tracing parent points worker
processes at the shared per-run trace directory."""

FLIGHT_PREFIX = "flight-"
"""File-name prefix of flight-recorder dumps (excluded from stitching
when the worker's full JSONL sink is present)."""

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
    """Append-only JSONL event sink with bounded-loss flushing."""

    def __init__(self, path: str, flush_every: int = 32):
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")
        self._flush_every = max(1, flush_every)
        self._pending = 0

    def write(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._pending += 1
        if self._pending >= self._flush_every:
            self._fh.flush()
            self._pending = 0

    def close(self) -> None:
        try:
            self._fh.flush()
            self._fh.close()
        except OSError:  # pragma: no cover - defensive
            pass


class Tracer:
    """Span/instant event recorder for one process.

    Thread-safe: spans may open and close concurrently on any thread;
    each event carries the native thread id of its recording thread.
    ``ring_capacity`` bounds the in-memory buffer (oldest events are
    evicted first); without it every event is retained.
    """

    enabled = True

    def __init__(
        self,
        *,
        ring_capacity: Optional[int] = None,
        sink: Optional[JsonlSink] = None,
        flight_path: Optional[str] = None,
        flight_every: int = 128,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ):
        self.pid = os.getpid()
        self.sample_every = max(1, sample_every)
        self._lock = threading.Lock()
        self._ring_capacity = ring_capacity
        self._events: List[Dict[str, Any]] = []
        self._sink = sink
        self._flight_path = flight_path
        self._flight_every = max(1, flight_every)
        self._since_flight = 0
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
            self._events.append(event)
            if self._ring_capacity is not None and len(self._events) > self._ring_capacity:
                del self._events[: len(self._events) - self._ring_capacity]
            if self._sink is not None:
                self._sink.write(event)
            if self._flight_path is not None:
                self._since_flight += 1
                if self._since_flight >= self._flight_every:
                    self._dump_flight_locked()

    # -- flight recorder ------------------------------------------------
    def _dump_flight_locked(self) -> None:
        self._since_flight = 0
        directory = os.path.dirname(self._flight_path) or "."
        try:
            fd, tmp = tempfile.mkstemp(prefix=".flight-", dir=directory)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for event in self._events:
                    handle.write(json.dumps(event, separators=(",", ":")) + "\n")
            os.replace(tmp, self._flight_path)
        except OSError:  # pragma: no cover - tracing must never kill the host
            pass

    def dump_flight(self) -> None:
        """Force a flight-recorder snapshot (no-op without a flight path)."""
        if self._flight_path is None:
            return
        with self._lock:
            self._dump_flight_locked()

    # -- access / lifecycle ---------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        """A snapshot of the buffered events (oldest first)."""
        with self._lock:
            return list(self._events)

    def close(self) -> None:
        """Flush the sink and take a final flight snapshot."""
        if self._flight_path is not None:
            self.dump_flight()
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


# ----------------------------------------------------------------------
# Worker-process activation
# ----------------------------------------------------------------------
def maybe_install_worker_tracer(
    role: str,
    *,
    ring_capacity: int = 512,
    flush_every: int = 32,
    flight_every: int = 32,
) -> Optional[Tracer]:
    """Install a tracer when the parent requested tracing via the env.

    Returns None (and installs nothing) when :data:`TRACE_DIR_ENV` is
    unset.  Otherwise the tracer appends every event to
    ``<dir>/<role>-<pid>.jsonl`` and keeps a flight ring of the last
    ``ring_capacity`` events in ``<dir>/flight-<role>-<pid>.jsonl`` so a
    SIGKILLed worker leaves both a (possibly truncated) event log and a
    recent-history snapshot.
    """
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    try:
        os.makedirs(directory, exist_ok=True)
        pid = os.getpid()
        sink = JsonlSink(
            os.path.join(directory, f"{role}-{pid}.jsonl"), flush_every=flush_every
        )
        tracer = Tracer(
            sink=sink,
            ring_capacity=ring_capacity,
            flight_path=os.path.join(directory, f"{FLIGHT_PREFIX}{role}-{pid}.jsonl"),
            flight_every=flight_every,
        )
    except OSError:  # pragma: no cover - unwritable trace dir
        return None
    return install(tracer)


def shutdown_worker_tracer() -> None:
    """Close and uninstall the worker tracer installed by this process."""
    tracer = uninstall()
    if isinstance(tracer, Tracer):
        tracer.close()


# ----------------------------------------------------------------------
# Parent-side session
# ----------------------------------------------------------------------
@contextmanager
def trace_session(path: str, *, label: str = "session") -> Iterator[Tracer]:
    """Trace a whole command into a Perfetto-loadable file at ``path``.

    Installs a parent tracer, exports :data:`TRACE_DIR_ENV` so every
    worker process spawned underneath traces itself, and on exit stitches
    the parent events and all per-worker JSONL files into one Chrome
    trace-event document written to ``path``.
    """
    from repro.obs.export import collect_worker_events, write_chrome_trace

    workers_dir = tempfile.mkdtemp(prefix="repro-trace-")
    previous_env = os.environ.get(TRACE_DIR_ENV)
    os.environ[TRACE_DIR_ENV] = workers_dir
    tracer = install(Tracer())
    try:
        with tracer.span(label, cat="session"):
            yield tracer
    finally:
        uninstall()
        os.environ.pop(TRACE_DIR_ENV, None)
        if previous_env is not None:
            os.environ[TRACE_DIR_ENV] = previous_env
        events = tracer.events() + collect_worker_events(workers_dir)
        write_chrome_trace(path, events)
        shutil.rmtree(workers_dir, ignore_errors=True)
