"""The one observability bootstrap: one session, one directory, one variable.

A command that asks for a trace (``--trace-out``) or for live worker
progress (``evaluate --live``) runs inside :func:`session`.  The session
makes one temporary directory, exports it as :data:`OBS_DIR_ENV`, and
records which layers it asked for as subdirectories of it:

* ``trace/`` exists only when a trace was requested; every worker writes
  its events to ``trace/<role>-<pid>.jsonl``;
* ``heartbeat/`` exists only when live progress was requested; every
  worker publishes ``heartbeat/hb-<role>-<pid>.json``.

Supervised worker processes inherit the variable.  :mod:`repro.supervise`
brackets every child body with :func:`install_worker` and
:func:`shutdown_worker`, which turn on exactly the layers the session
asked for, and reads :func:`heartbeat_dir` for its stall check.  On exit
the session writes the parent's events and every worker's sink as one
Chrome trace and removes the directory.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.export import collect_worker_events, write_chrome_trace
from repro.obs.heartbeat import (
    Heartbeat,
    HeartbeatMonitor,
    heartbeat_path,
    install_heartbeat,
    uninstall_heartbeat,
)
from repro.obs.tracer import NULL_TRACER, JsonlSink, Tracer, install, uninstall

OBS_DIR_ENV = "REPRO_OBS_DIR"
"""Environment variable through which a session points the worker
processes underneath it at its directory."""

TRACE_SUBDIR = "trace"
HEARTBEAT_SUBDIR = "heartbeat"


def _layer_dir(name: str) -> Optional[str]:
    """``<session dir>/<name>`` when the current session asked for it."""
    root = os.environ.get(OBS_DIR_ENV)
    if not root:
        return None
    path = os.path.join(root, name)
    return path if os.path.isdir(path) else None


def heartbeat_dir() -> Optional[str]:
    """The session's heartbeat directory; None without live progress."""
    return _layer_dir(HEARTBEAT_SUBDIR)


def install_worker(role: str) -> None:
    """Turn on, in this worker process, the layers its session asked for.

    A forked worker first drops the tracer and heartbeat it inherited
    from its parent: their events and records belong to the parent.
    """
    uninstall()
    uninstall_heartbeat()
    trace_dir = _layer_dir(TRACE_SUBDIR)
    live_dir = heartbeat_dir()
    try:
        if trace_dir is not None:
            sink = JsonlSink(os.path.join(trace_dir, f"{role}-{os.getpid()}.jsonl"))
            install(Tracer(sink=sink))
        if live_dir is not None:
            install_heartbeat(Heartbeat(role=role, path=heartbeat_path(live_dir, role)))
    except OSError:  # pragma: no cover - observability must never kill a worker
        pass


def shutdown_worker() -> None:
    """Close and uninstall what :func:`install_worker` turned on."""
    uninstall_heartbeat().close()
    uninstall().close()


@contextmanager
def session(
    *, trace_out: Optional[str] = None, live: bool = False, label: str = "session"
) -> Iterator[Optional[HeartbeatMonitor]]:
    """Run a command under the observability it asked for.

    With ``trace_out`` the parent traces into memory under one ``label``
    span, and on exit its events and every worker's are written to
    ``trace_out``.  With ``live`` the workers publish heartbeats, and the
    session yields a monitor over them (None otherwise).  Without
    either, nothing is set up.
    """
    if not trace_out and not live:
        yield None
        return
    root = tempfile.mkdtemp(prefix="repro-obs-")
    previous = os.environ.get(OBS_DIR_ENV)
    os.environ[OBS_DIR_ENV] = root
    monitor = tracer = None
    if live:
        os.mkdir(os.path.join(root, HEARTBEAT_SUBDIR))
        monitor = HeartbeatMonitor(os.path.join(root, HEARTBEAT_SUBDIR))
    if trace_out:
        os.mkdir(os.path.join(root, TRACE_SUBDIR))
        tracer = install(Tracer())
    try:
        with (tracer or NULL_TRACER).span(label, cat="session"):
            yield monitor
    finally:
        if previous is None:
            os.environ.pop(OBS_DIR_ENV, None)
        else:
            os.environ[OBS_DIR_ENV] = previous
        try:
            if tracer is not None:
                uninstall()
                worker_events = collect_worker_events(os.path.join(root, TRACE_SUBDIR))
                write_chrome_trace(trace_out, tracer.events() + worker_events)
        finally:
            shutil.rmtree(root, ignore_errors=True)
