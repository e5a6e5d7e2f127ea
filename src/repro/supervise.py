"""One supervisor for every child process the stack starts.

The benchmark harness and the portfolio race each run work in a child
process that the parent can kill on time: a case whose budget is ``t``
seconds must end within ``t`` plus a short grace even if the engine is
stuck inside one SAT call and never polls its cooperative deadline.
This module is the only code that spawns, waits on, reaps or kills those
processes.  The callers keep their own budgets, grace values and
reactions to a stall.

Two process decisions live here:

* a *leader* child (a harness task) leads its own process group, so its
  hard kill takes everything it started with it, portfolio members
  included.  A member stays in its parent's group for the same reason:
  the kill of that group must reach it;
* leaders are non-daemonic, because a daemonic process may not start
  children (the portfolio members).  Members are daemonic, so the
  interpreter's exit also ends a member that was never reaped.

A child runs its body under the one observability bootstrap
(:mod:`repro.obs.bootstrap`), which turns on the layers the enclosing
session asked for.  It runs ``body(*args)`` once and ships the answer as
``("ok", value)`` or ``("error", "Type: msg")``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.obs.bootstrap import heartbeat_dir, install_worker, shutdown_worker
from repro.obs.heartbeat import HeartbeatMonitor, heartbeat_path

JOIN_TIMEOUT = 1.0
"""Seconds a reaped child gets to exit by itself before SIGKILL: enough
to flush its trace and final heartbeat after it shipped its answer."""

_STALL_CHECK_INTERVAL = 0.5


def _answer(conn, body: Callable[..., Any], args: tuple) -> None:
    """Run ``body(*args)`` and ship its outcome.

    An interrupt or exit is shipped like an exception, then re-raised so
    that it still ends the child.
    """
    try:
        reply: Tuple[str, Any] = ("ok", body(*args))
    except BaseException as exc:  # report, never hang the pipe
        reply = ("error", f"{type(exc).__name__}: {exc}")
        if not isinstance(exc, Exception):
            _ship(conn, reply)
            raise
    _ship(conn, reply)


def _ship(conn, reply: Tuple[str, Any]) -> None:
    try:
        conn.send(reply)
    except (BrokenPipeError, OSError):
        pass


def _child_main(conn, role, leader, body, args):
    """Child-process body: bootstrap observability, then answer."""
    if leader:
        try:
            os.setpgid(0, 0)
        except OSError:  # pragma: no cover - already a group leader
            pass
    install_worker(role)
    try:
        _answer(conn, body, args)
    finally:
        shutdown_worker()
        conn.close()


class Child:
    """The parent's handle on one supervised process.

    ``task`` is the caller's tag for the work the child is running,
    ``started`` is when it began and ``deadline`` when it becomes overdue
    (None: never).
    """

    def __init__(self, proc, conn, role: str, task: Any, budget: Optional[float]):
        self.proc = proc
        self.conn = conn
        self.role = role
        self.task = task
        self.started = time.perf_counter()
        self.deadline = self.started + budget if budget is not None else None
        self.stalled = False

    @property
    def pid(self) -> int:
        return self.proc.pid

    def receive(self) -> Optional[Tuple[str, Any]]:
        """The child's answer, or None when it died without one."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None


class Supervisor:
    """Spawns, watches and reaps the children of one caller.

    ``leader`` places every child in its own process group (and keeps it
    non-daemonic); otherwise children stay in this process's group.  In
    an observability session that asked for live progress, the children
    publish heartbeats into its directory, which :meth:`stalled` reads
    and :meth:`reap` cleans up.
    """

    def __init__(self, *, leader: bool):
        self.leader = leader
        live_dir = heartbeat_dir()
        self.monitor = HeartbeatMonitor(live_dir) if live_dir else None
        self._ctx = multiprocessing.get_context()
        self._next_stall_check = 0.0

    def spawn(
        self,
        role: str,
        body: Callable[..., Any],
        *args: Any,
        task: Any = None,
        budget: Optional[float] = None,
    ) -> Child:
        """Start a child running ``body(*args)`` as ``task``.

        The child is overdue ``budget`` seconds later.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_main,
            args=(child_conn, role, self.leader, body, args),
            name=role,
            daemon=not self.leader,
        )
        proc.start()
        child_conn.close()
        return Child(proc, parent_conn, role, task, budget)

    @staticmethod
    def wait(children: Iterable[Child], timeout: float) -> List[Child]:
        """The children whose answer (or closed pipe) is ready within ``timeout``."""
        by_conn = {child.conn: child for child in children}
        ready = multiprocessing.connection.wait(list(by_conn), timeout=timeout)
        return [by_conn[conn] for conn in ready]

    @staticmethod
    def overdue(children: Iterable[Child]) -> List[Child]:
        """The children past their deadline."""
        now = time.perf_counter()
        return [
            child
            for child in children
            if child.deadline is not None and now > child.deadline
        ]

    def reap(self, child: Child, *, kill: bool = False) -> None:
        """End ``child`` for good and drop its heartbeat record.

        Unless ``kill`` is set, the child first gets :data:`JOIN_TIMEOUT`
        seconds to exit by itself.  Then it is SIGKILLed, with its whole
        group if it leads one, so nothing it started outlives it.  The
        record is removed after the join, so the child's final publish
        cannot recreate it.
        """
        proc = child.proc
        if not kill:
            proc.join(JOIN_TIMEOUT)
        if self.leader:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
        if proc.is_alive():
            proc.kill()
        proc.join(JOIN_TIMEOUT)
        child.conn.close()
        if self.monitor is not None:
            try:
                os.remove(heartbeat_path(self.monitor.directory, child.role, proc.pid))
            except OSError:
                pass

    def stalled(self, children: Iterable[Child], limit: float) -> List[Tuple[Child, float]]:
        """Children whose heartbeat went silent, with the record's age.

        A child qualifies once it has run longer than ``limit`` (a fresh
        child gets that long to publish its first beat) and its record is
        older than ``limit``; a child with no record is judged by its
        running time.  A merely slow child keeps beating (the GIL preempts
        into the publisher thread even mid-SAT-call), so silence means it
        is frozen (SIGSTOP), wedged outside the interpreter, or dead.
        Each child is reported once; the directory is read at most every
        0.5 s, and never outside a live session.
        """
        now = time.perf_counter()
        if self.monitor is None or now < self._next_stall_check:
            return []
        self._next_stall_check = now + _STALL_CHECK_INTERVAL
        records = {record.get("pid"): record for record in self.monitor.read_all()}
        found: List[Tuple[Child, float]] = []
        for child in children:
            running_for = now - child.started
            if child.stalled or running_for <= limit:
                continue
            record = records.get(child.pid)
            age = self.monitor.age(record) if record is not None else running_for
            if age > limit:
                child.stalled = True
                found.append((child, age))
        return found
