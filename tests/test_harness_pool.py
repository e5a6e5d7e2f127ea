"""Failure-path tests for the hard-timeout process pool.

The happy path is exercised all over the harness tests; these cover what
happens when workers die, hang, or finish right at the deadline — the
guarantees the evaluation harness builds on.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.harness.pool import (
    PoolResult,
    default_grace,
    map_with_hard_timeout,
    resolve_jobs,
)
from repro.obs.heartbeat import heartbeat_session
from repro.obs.tracer import Tracer, install, uninstall

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker fault injection relies on the fork start method",
)


def _echo(payload):
    return payload * 2


def _die(payload):
    os._exit(17)  # simulates a SIGKILL / segfault: no exception, no report


def _raise(payload):
    raise RuntimeError(f"bad payload {payload}")


def _hang(payload):
    time.sleep(120)


def _return_but_linger(payload):
    # The result reaches the pipe, but a non-daemon thread keeps the
    # worker process alive afterwards: the parent must keep the value
    # and still reap the process instead of leaking it.
    import threading

    threading.Thread(target=time.sleep, args=(120,), daemon=False).start()
    return payload


def _freeze(payload):
    # Stops the whole worker, heartbeat publisher thread included.
    os.kill(os.getpid(), signal.SIGSTOP)
    return payload


def _mixed(payload):
    if payload == "die":
        os._exit(9)
    if payload == "hang":
        time.sleep(120)
    return payload


class TestFailurePaths:
    def test_killed_worker_reports_error_not_hang(self):
        start = time.monotonic()
        results = map_with_hard_timeout(_die, ["x"], timeout=30.0, jobs=1)
        assert time.monotonic() - start < 10
        (result,) = results
        assert not result.ok
        assert not result.timed_out
        assert result.error == "worker died without reporting"

    def test_exception_is_reported_not_fatal(self):
        (result,) = map_with_hard_timeout(_raise, ["p1"], timeout=10.0, jobs=1)
        assert result.error == "RuntimeError: bad payload p1"
        assert not result.timed_out

    def test_hung_worker_is_hard_killed(self):
        start = time.monotonic()
        (result,) = map_with_hard_timeout(_hang, ["x"], timeout=0.3, jobs=1, grace=0.2)
        assert result.timed_out
        assert result.error is None
        assert time.monotonic() - start < 10
        # No orphaned worker processes survive the kill.
        assert not multiprocessing.active_children()

    def test_failures_do_not_poison_siblings(self):
        payloads = ["ok-1", "die", "ok-2", "hang", "ok-3"]
        results = map_with_hard_timeout(
            _mixed, payloads, timeout=1.0, jobs=2, grace=0.2
        )
        assert [r.ok for r in results] == [True, False, True, False, True]
        assert results[0].value == "ok-1"
        assert results[1].error == "worker died without reporting"
        assert results[3].timed_out
        assert results[4].value == "ok-3"
        assert not multiprocessing.active_children()

    def test_result_in_flight_survives_worker_lingering(self):
        start = time.monotonic()
        (result,) = map_with_hard_timeout(
            _return_but_linger, ["kept"], timeout=5.0, jobs=1
        )
        assert result.ok
        assert result.value == "kept"
        assert time.monotonic() - start < 10
        assert not multiprocessing.active_children()

    def test_completion_callback_sees_failures(self):
        seen = {}
        map_with_hard_timeout(
            _mixed,
            ["ok-1", "die"],
            timeout=5.0,
            jobs=2,
            on_result=lambda index, result: seen.__setitem__(index, result),
        )
        assert seen[0].ok
        assert not seen[1].ok


    def test_abort_with_queued_work_leaves_no_orphans(self):
        # A crashing completion callback aborts the pool mid-run while
        # payloads are still queued and a worker is still hanging; the
        # shutdown path must kill every live worker before propagating.
        def explode(index, result):
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            map_with_hard_timeout(
                _mixed,
                ["ok-1", "hang", "ok-2", "ok-3"],
                timeout=30.0,
                jobs=2,
                on_result=explode,
            )
        deadline = time.monotonic() + 5
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_frozen_worker_is_one_stall_then_a_timeout(self):
        # A SIGSTOPped worker falls silent long before its hard deadline
        # (stall limit 1.5 s, kill at 3 s + 1.5 s grace): the pool records
        # one ``harness.stall`` instant, then the deadline kills it.
        tracer = install(Tracer())
        try:
            with heartbeat_session():
                (result,) = map_with_hard_timeout(_freeze, ["x"], timeout=3.0, jobs=1)
        finally:
            uninstall()
        stalls = [e for e in tracer.events() if e["name"] == "harness.stall"]
        assert len(stalls) == 1
        assert stalls[0]["args"]["task"] == 0
        assert stalls[0]["args"]["age"] > 1.5
        assert result.timed_out
        assert result.error is None
        assert not multiprocessing.active_children()


class TestParameters:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            map_with_hard_timeout(_echo, [1], timeout=0.0)

    def test_default_grace_clamped(self):
        assert default_grace(0.1) == 0.2
        assert default_grace(2.0) == 1.0
        assert default_grace(100.0) == 5.0

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_pool_result_ok_flag(self):
        assert PoolResult(value=1).ok
        assert not PoolResult(timed_out=True).ok
        assert not PoolResult(error="x").ok
