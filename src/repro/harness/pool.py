"""A small process pool with *hard* per-task timeouts.

``concurrent.futures.ProcessPoolExecutor`` cannot kill a worker that is
stuck inside a single long SAT call — a cancelled future only prevents a
task from starting.  The benchmark harness needs the opposite guarantee:
a case whose budget is ``t`` seconds must terminate within roughly ``t``
plus a short grace period even if the engine never polls its cooperative
deadline.  This module therefore runs **one process per task**, bounded
to ``jobs`` concurrent workers, on :class:`repro.supervise.Supervisor`:
every worker leads its own process group and an overdue one is killed
with its group (so nested children, e.g. portfolio members, die with it).

Results come back over a pipe in completion order and are re-assembled in
task order, which makes downstream tables deterministic regardless of
scheduling.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.heartbeat import HEARTBEAT_DIR_ENV
from repro.obs.tracer import get_tracer
from repro.supervise import Child, Supervisor

_POLL_INTERVAL = 0.05


@dataclass
class PoolResult:
    """Outcome of one pooled task."""

    value: Any = None
    elapsed: float = 0.0
    timed_out: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True if the worker returned a value (no kill, no exception)."""
        return not self.timed_out and self.error is None


def default_grace(timeout: float) -> float:
    """Extra seconds granted past the cooperative budget before a hard kill.

    Half the budget, clamped to [0.2 s, 5 s]: tight enough that a stuck
    worker dies within ~1.5x its budget, loose enough that an engine
    finishing a final SAT call just past the deadline still reports its
    own UNKNOWN instead of being killed mid-result.
    """
    return min(5.0, max(0.2, 0.5 * timeout))


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request (None or <=0 means one per CPU)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _run_task(worker: Callable[[Any], Any], payload: Any) -> Any:
    """Worker body: one task under a ``harness.task`` span."""
    with get_tracer().span("harness.task", cat="harness"):
        return worker(payload)


def map_with_hard_timeout(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    timeout: float,
    jobs: Optional[int] = 1,
    grace: Optional[float] = None,
    on_result: Optional[Callable[[int, PoolResult], None]] = None,
) -> List[PoolResult]:
    """Run ``worker(payload)`` for every payload under a hard per-task budget.

    At most ``jobs`` workers run concurrently; each gets its own process
    and is killed (with its process group) ``grace`` seconds after
    ``timeout``.  ``on_result`` is invoked in *completion* order as
    results arrive; the returned list is in *task* order.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    jobs = resolve_jobs(jobs)
    if grace is None:
        grace = default_grace(timeout)

    # When a heartbeat session is active the parent also *watches* the
    # records: a worker whose publisher goes silent well before its hard
    # deadline gets a ``harness.stall`` trace instant (the deadline still
    # does the killing — the harness has one, unlike a hung interactive run).
    supervisor = Supervisor(leader=True, heartbeat_dir=os.environ.get(HEARTBEAT_DIR_ENV))
    stall_limit = max(1.0, 0.5 * timeout)
    results: List[Optional[PoolResult]] = [None] * len(payloads)
    pending = list(enumerate(payloads))
    running: List[Child] = []

    def _finish(child: Child, result: PoolResult, *, kill: bool) -> None:
        running.remove(child)
        supervisor.reap(child, kill=kill)
        results[child.task] = result
        if on_result is not None:
            on_result(child.task, result)

    try:
        while pending or running:
            while pending and len(running) < jobs:
                index, payload = pending.pop(0)
                running.append(
                    supervisor.spawn(
                        "harness", _run_task, worker, payload,
                        task=index, budget=timeout + grace,
                    )
                )

            for child in supervisor.wait(running, _POLL_INTERVAL):
                elapsed = time.perf_counter() - child.started
                kind, value = child.receive() or ("error", "worker died without reporting")
                if kind == "ok":
                    result = PoolResult(value=value, elapsed=elapsed)
                else:
                    result = PoolResult(elapsed=elapsed, error=str(value))
                _finish(child, result, kill=False)

            for child, age in supervisor.stalled(running, stall_limit):
                get_tracer().instant(
                    "harness.stall", cat="harness", task=child.task, age=round(age, 2)
                )

            for child in supervisor.overdue(running):
                elapsed = time.perf_counter() - child.started
                _finish(child, PoolResult(elapsed=elapsed, timed_out=True), kill=True)
    finally:
        for child in running:
            supervisor.reap(child, kill=True)
            if results[child.task] is None:
                results[child.task] = PoolResult(
                    elapsed=time.perf_counter() - child.started, timed_out=True
                )

    return [result if result is not None else PoolResult(timed_out=True) for result in results]
