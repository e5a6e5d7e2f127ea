"""Live progress heartbeats from worker processes to their parent.

The tracer (:mod:`repro.obs.tracer`) answers *what happened* after a run;
this module answers *what is happening right now*: engines publish cheap
structured progress (IC3 frame count, lemma/obligation totals, BMC
bound, k-induction ``k``, portfolio member states) into a per-process
:class:`Heartbeat`, and a background publisher thread writes the
current snapshot — plus worker RSS/CPU sampled from ``/proc`` — to
``hb-<role>-<pid>.json`` in a shared directory at a fixed interval, via
an atomic ``mkstemp`` + ``rename`` so readers never see a torn file.

The parent side (:class:`HeartbeatMonitor`) lists that directory and
reads the records.  Timestamps are :func:`time.monotonic`, which is
CLOCK_MONOTONIC on Linux and therefore shared across the processes of
one run — ``monitor.age(record)`` is a real cross-process staleness
measure, immune to wall-clock steps.  A record whose age exceeds the
stall limit while its worker is busy means the *publisher thread* went
silent: under CPython's GIL the thread keeps beating through the longest
SAT call (the interpreter preempts every few milliseconds), so silence
indicates a frozen (SIGSTOP), livelocked-in-C, or dead process — what
the supervisor's stall check (:meth:`repro.supervise.Supervisor.stalled`)
wants to know *before* the hard deadline fires.

The same three design constraints as the tracer apply, the first one
verbatim: **disabled heartbeats must cost nothing**.  The module-level
current heartbeat defaults to :data:`NULL_HEARTBEAT`, whose ``update``
is a constant-time no-op, and every instrumentation site guards argument
construction behind ``hb.enabled``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

HEARTBEAT_DIR_ENV = "REPRO_HEARTBEAT_DIR"
"""Environment variable through which a parent points worker processes
at the shared heartbeat directory."""

HEARTBEAT_PREFIX = "hb-"
"""File-name prefix of per-worker heartbeat records."""

DEFAULT_INTERVAL = 0.25
"""Default publisher period in seconds: fast enough that a 1 s stall
limit has four missed beats behind it, slow enough to be free."""

# ``/proc/self/stat`` field indexes (after the comm field) for utime and
# stime, and the kernel tick length; both gated on /proc existing so the
# module stays importable on non-Linux hosts.
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _proc_sample() -> Dict[str, float]:
    """Worker RSS (kB) and cumulative CPU seconds from ``/proc/self``."""
    sample: Dict[str, float] = {}
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            rss_pages = int(handle.read().split()[1])
        sample["rss_kb"] = rss_pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as handle:
            stat = handle.read()
        # comm may contain spaces; fields resume after the closing paren.
        fields = stat[stat.rindex(")") + 2 :].split()
        utime, stime = int(fields[11]), int(fields[12])
        sample["cpu_seconds"] = round((utime + stime) / _CLOCK_TICKS, 3)
    except (OSError, ValueError, IndexError):
        pass
    return sample


class NullHeartbeat:
    """The disabled heartbeat: every operation is a constant-time no-op."""

    __slots__ = ()
    enabled = False

    def update(self, **fields: Any) -> None:
        return None

    def reset(self, **fields: Any) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def close(self) -> None:
        return None


NULL_HEARTBEAT = NullHeartbeat()


class Heartbeat:
    """Per-process progress record with an optional file publisher.

    ``update(**fields)`` merges fields under a lock (a few dict writes —
    safe to call from frame-extension loops); ``reset(**fields)``
    replaces them (a harness worker starting its next case).  With ``path``
    set, a daemon thread republishes every ``interval`` seconds whether
    or not anything changed — the *sequence number advancing* is the
    liveness signal, the fields are the progress payload.
    """

    enabled = True

    def __init__(
        self,
        *,
        role: str = "worker",
        path: Optional[str] = None,
        interval: float = DEFAULT_INTERVAL,
    ):
        self.role = role
        self.path = path
        self.interval = max(0.01, interval)
        self.pid = os.getpid()
        self._fields: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if path is not None:
            self.publish()
            self._thread = threading.Thread(
                target=self._publish_loop, name=f"heartbeat-{role}", daemon=True
            )
            self._thread.start()

    # -- producer side --------------------------------------------------
    def update(self, **fields: Any) -> None:
        with self._lock:
            self._fields.update(fields)

    def reset(self, **fields: Any) -> None:
        with self._lock:
            self._fields = dict(fields)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            fields = dict(self._fields)
            seq = self._seq
        record: Dict[str, Any] = {
            "role": self.role,
            "pid": self.pid,
            "seq": seq,
            "time_mono": time.monotonic(),
            "time_wall": time.time(),
            "progress": fields,
        }
        record.update(_proc_sample())
        return record

    def publish(self) -> None:
        """Write one snapshot now (atomically); no-op without a path."""
        if self.path is None:
            return
        record = self.snapshot()
        directory = os.path.dirname(self.path) or "."
        try:
            fd, tmp = tempfile.mkstemp(prefix=".hb-", dir=directory)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, separators=(",", ":"))
            os.replace(tmp, self.path)
        except OSError:  # pragma: no cover - heartbeats must never kill the host
            return
        with self._lock:
            self._seq += 1

    def _publish_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.publish()

    def close(self) -> None:
        """Stop the publisher and leave one final snapshot behind."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None
        self.publish()


# ----------------------------------------------------------------------
# The per-process current heartbeat
# ----------------------------------------------------------------------
_current: Any = NULL_HEARTBEAT


def get_heartbeat() -> Any:
    """The process's current heartbeat (:data:`NULL_HEARTBEAT` when off)."""
    return _current


def install_heartbeat(heartbeat: Heartbeat) -> Heartbeat:
    """Make ``heartbeat`` the process-wide current heartbeat."""
    global _current
    _current = heartbeat
    return heartbeat


def uninstall_heartbeat() -> Any:
    """Disable heartbeats; returns the heartbeat that was installed."""
    global _current
    previous = _current
    _current = NULL_HEARTBEAT
    return previous


# ----------------------------------------------------------------------
# Worker-process activation
# ----------------------------------------------------------------------
def heartbeat_path(directory: str, role: str, pid: Optional[int] = None) -> str:
    """The canonical record path for one worker."""
    return os.path.join(
        directory, f"{HEARTBEAT_PREFIX}{role}-{pid if pid is not None else os.getpid()}.json"
    )


def maybe_install_worker_heartbeat(
    role: str, *, interval: float = DEFAULT_INTERVAL
) -> Optional[Heartbeat]:
    """Install a publishing heartbeat when the parent requested one.

    Returns None (and installs nothing) when :data:`HEARTBEAT_DIR_ENV`
    is unset — mirrors :func:`repro.obs.tracer.maybe_install_worker_tracer`,
    and is deliberately independent of it: a worker heartbeats fine
    without ever installing a tracer.
    """
    directory = os.environ.get(HEARTBEAT_DIR_ENV)
    if not directory:
        return None
    try:
        os.makedirs(directory, exist_ok=True)
        heartbeat = Heartbeat(
            role=role, path=heartbeat_path(directory, role), interval=interval
        )
    except OSError:  # pragma: no cover - unwritable heartbeat dir
        return None
    return install_heartbeat(heartbeat)


def shutdown_worker_heartbeat() -> None:
    """Close and uninstall the heartbeat installed by this process."""
    heartbeat = uninstall_heartbeat()
    if isinstance(heartbeat, Heartbeat):
        heartbeat.close()


# ----------------------------------------------------------------------
# Parent side: monitor + session
# ----------------------------------------------------------------------
class HeartbeatMonitor:
    """Reads the heartbeat records of a shared directory.

    Tolerant by construction: a missing directory means no records, a
    half-written or non-JSON file is skipped (publishers rename
    atomically, but a reader may race a crashing worker's debris).
    """

    def __init__(self, directory: str):
        self.directory = directory

    def read_all(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return records
        for name in names:
            if not name.startswith(HEARTBEAT_PREFIX) or not name.endswith(".json"):
                continue
            record = self._read(os.path.join(self.directory, name))
            if record is not None:
                records.append(record)
        return records

    def latest_for(self, pid: int) -> Optional[Dict[str, Any]]:
        """The record of one worker process, or None."""
        for record in self.read_all():
            if record.get("pid") == pid:
                return record
        return None

    @staticmethod
    def _read(path: str) -> Optional[Dict[str, Any]]:
        try:
            with io.open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    @staticmethod
    def age(record: Dict[str, Any]) -> float:
        """Seconds since the record was published (CLOCK_MONOTONIC)."""
        stamp = record.get("time_mono")
        if not isinstance(stamp, (int, float)):
            return float("inf")
        return max(0.0, time.monotonic() - stamp)

    def stalled(self, record: Dict[str, Any], limit: float) -> bool:
        return self.age(record) > limit


@contextmanager
def heartbeat_session(directory: Optional[str] = None) -> Iterator[HeartbeatMonitor]:
    """Point child workers at a heartbeat directory for one command.

    Exports :data:`HEARTBEAT_DIR_ENV` (creating a temp directory when
    none is given), yields a monitor over it, then restores the
    environment and removes the temp directory.
    """
    own_dir = directory is None
    workdir = directory or tempfile.mkdtemp(prefix="repro-hb-")
    previous = os.environ.get(HEARTBEAT_DIR_ENV)
    os.environ[HEARTBEAT_DIR_ENV] = workdir
    try:
        yield HeartbeatMonitor(workdir)
    finally:
        os.environ.pop(HEARTBEAT_DIR_ENV, None)
        if previous is not None:
            os.environ[HEARTBEAT_DIR_ENV] = previous
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Live status line
# ----------------------------------------------------------------------
def format_progress(record: Dict[str, Any]) -> str:
    """One worker's progress fields as a compact ``k=v`` run."""
    progress = record.get("progress", {}) or {}
    parts: List[str] = []
    engine = progress.get("engine")
    if engine:
        parts.append(str(engine))
    for key in ("case", "config", "job", "frame", "bound", "k", "lemmas",
                "obligations", "sat_calls"):
        value = progress.get(key)
        if value is not None:
            parts.append(f"{key}={value}")
    members = progress.get("members")
    if isinstance(members, dict) and members:
        states = ",".join(f"{name}:{state}" for name, state in sorted(members.items()))
        parts.append(f"members[{states}]")
    rss = record.get("rss_kb")
    if rss:
        parts.append(f"rss={int(rss) // 1024}M")
    return " ".join(parts) if parts else "idle"


class LiveStatus:
    """A single self-erasing ``\\r`` status line fed by a callable.

    ``source()`` returns the current line (or None to leave the last one
    up).  The printer only runs when ``stream.isatty()`` — piping stdout
    to a file suppresses it entirely, keeping command output parseable.
    """

    def __init__(
        self,
        source: Callable[[], Optional[str]],
        *,
        stream: Any = None,
        interval: float = 0.5,
    ):
        import sys

        self.source = source
        self.stream = stream if stream is not None else sys.stdout
        self.interval = max(0.05, interval)
        self.enabled = bool(getattr(self.stream, "isatty", lambda: False)())
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_width = 0

    def __enter__(self) -> "LiveStatus":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> bool:
        self.stop()
        return False

    def start(self) -> None:
        if not self.enabled or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="live-status", daemon=True
        )
        self._thread.start()

    def _paint(self, line: str) -> None:
        padded = line.ljust(self._last_width)
        self._last_width = len(line)
        try:
            self.stream.write("\r" + padded)
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            line = self.source()
            if line is not None:
                self._paint(line)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None
        if self.enabled and self._last_width:
            self._paint("")
            try:
                self.stream.write("\r")
                self.stream.flush()
            except (OSError, ValueError):  # pragma: no cover
                pass
