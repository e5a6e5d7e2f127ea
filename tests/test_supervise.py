"""Failure paths of the process supervisor.

Every scenario runs one child per payload, as the harness pool does.
The last two classes pin the process decisions the callers rely on: a
harness kill reaches the portfolio members its worker started, and
reaped workers leave no heartbeat records behind.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.benchgen import token_ring
from repro.core.result import CheckOutcome, CheckResult
from repro.engines import register_engine
from repro.engines.portfolio import PortfolioEngine
from repro.harness.pool import map_with_hard_timeout
from repro.obs.heartbeat import heartbeat_session
from repro.supervise import Supervisor

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="child bodies and test engines are inherited through fork",
)


def _die(payload):
    os._exit(17)  # simulates a SIGKILL / segfault: no exception, no report


def _raise(payload):
    raise RuntimeError(f"bad payload {payload}")


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _linger(payload):
    # The answer reaches the pipe, but a non-daemon thread keeps the
    # process alive afterwards.
    threading.Thread(target=time.sleep, args=(120,), daemon=False).start()
    return payload


def _exit_with(code):
    raise SystemExit(code)


def _group(payload):
    return os.getpgid(0)


def _start(supervisor, body, payload, budget=30.0):
    """One child running ``body(payload)`` as task "t"."""
    return supervisor.spawn("harness", body, payload, task="t", budget=budget)


def _await_answer(supervisor, child, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if supervisor.wait([child], 0.05):
            return child.receive()
    raise AssertionError("child never answered")


class TestFailurePaths:
    def test_exit_without_answer_reads_as_death(self):
        supervisor = Supervisor(leader=True)
        child = _start(supervisor, _die, "x")
        assert _await_answer(supervisor, child) is None
        supervisor.reap(child, kill=True)
        assert not child.proc.is_alive()
        assert not multiprocessing.active_children()

    def test_exception_is_shipped_as_error(self):
        supervisor = Supervisor(leader=True)
        child = _start(supervisor, _raise, "p1")
        assert _await_answer(supervisor, child) == ("error", "RuntimeError: bad payload p1")
        supervisor.reap(child)
        assert not child.proc.is_alive()

    def test_hang_is_overdue_and_killed(self):
        supervisor = Supervisor(leader=True)
        start = time.monotonic()
        child = _start(supervisor, _sleep, 120, budget=0.3)
        while not supervisor.overdue([child]):
            assert not supervisor.wait([child], 0.05)
            assert time.monotonic() - start < 10
        assert time.monotonic() - start >= 0.3
        supervisor.reap(child, kill=True)
        assert not child.proc.is_alive()
        assert time.monotonic() - start < 10
        assert not multiprocessing.active_children()

    def test_answer_in_flight_survives_lingering(self):
        supervisor = Supervisor(leader=True)
        start = time.monotonic()
        child = _start(supervisor, _linger, "kept")
        assert _await_answer(supervisor, child) == ("ok", "kept")
        supervisor.reap(child)
        assert not child.proc.is_alive()
        assert time.monotonic() - start < 10
        assert not multiprocessing.active_children()

    def test_sigstop_is_a_stall_before_the_deadline(self, tmp_path):
        supervisor = Supervisor(
            leader=True, heartbeat_dir=str(tmp_path), heartbeat_interval=0.05
        )
        child = _start(supervisor, _sleep, 120, budget=60.0)
        try:
            deadline = time.monotonic() + 10
            while supervisor.monitor.latest_for(child.pid) is None:
                assert time.monotonic() < deadline, "no heartbeat published"
                time.sleep(0.05)
            # A sleeping child keeps beating: busy past the limit is not
            # a stall by itself.
            busy_until = time.monotonic() + 1.5
            while time.monotonic() < busy_until:
                assert supervisor.stalled([child], 1.0) == []
                time.sleep(0.1)
            os.kill(child.pid, signal.SIGSTOP)
            stopped = time.monotonic()
            found = []
            while not found:
                assert time.monotonic() - stopped < 10, "stall never reported"
                found = supervisor.stalled([child], 1.0)
                time.sleep(0.05)
            ((stalled_child, age),) = found
            assert stalled_child is child and age > 1.0
            assert not supervisor.overdue([child])
            # Reported once per task.
            time.sleep(0.6)
            assert supervisor.stalled([child], 1.0) == []
        finally:
            supervisor.reap(child, kill=True)
        assert not child.proc.is_alive()
        assert supervisor.monitor.read_all() == []


class TestChildLifecycle:
    def test_sigkill_reads_as_death_before_the_deadline(self):
        supervisor = Supervisor(leader=True)
        child = _start(supervisor, _sleep, 120, budget=60.0)
        try:
            os.kill(child.pid, signal.SIGKILL)
            assert _await_answer(supervisor, child) is None
            assert not supervisor.overdue([child])
        finally:
            supervisor.reap(child, kill=True)
        assert child.proc.exitcode == -signal.SIGKILL

    def test_exit_is_shipped_then_ends_the_child(self):
        supervisor = Supervisor(leader=True)
        child = _start(supervisor, _exit_with, 3)
        assert _await_answer(supervisor, child) == ("error", "SystemExit: 3")
        supervisor.reap(child)
        assert child.proc.exitcode == 3

    def test_unbudgeted_child_is_never_overdue(self):
        supervisor = Supervisor(leader=True)
        child = _start(supervisor, _sleep, 120, budget=None)
        try:
            assert child.deadline is None
            time.sleep(0.2)
            assert supervisor.overdue([child]) == []
        finally:
            supervisor.reap(child, kill=True)

    def test_wait_reports_only_ready_children(self):
        supervisor = Supervisor(leader=True)
        quick = _start(supervisor, _sleep, 0)
        slow = _start(supervisor, _sleep, 120)
        try:
            assert _await_answer(supervisor, quick) == ("ok", 0)
            assert supervisor.wait([quick, slow], 0.05) == [quick]
        finally:
            supervisor.reap(quick)
            supervisor.reap(slow, kill=True)

    def test_leader_child_leads_its_own_group(self):
        supervisor = Supervisor(leader=True)
        child = _start(supervisor, _group, None)
        assert not child.proc.daemon
        assert _await_answer(supervisor, child) == ("ok", child.pid)
        supervisor.reap(child)

    def test_member_child_stays_in_the_parent_group(self):
        supervisor = Supervisor(leader=False)
        child = _start(supervisor, _group, None)
        assert child.proc.daemon
        assert _await_answer(supervisor, child) == ("ok", os.getpgid(0))
        supervisor.reap(child)

    def test_no_stall_reports_without_a_heartbeat_dir(self):
        supervisor = Supervisor(leader=True)
        child = _start(supervisor, _sleep, 120)
        try:
            time.sleep(0.2)
            assert supervisor.stalled([child], 0.05) == []
        finally:
            supervisor.reap(child, kill=True)

    def test_heartbeat_names_role_and_pid_until_reaped(self, tmp_path):
        supervisor = Supervisor(
            leader=True, heartbeat_dir=str(tmp_path), heartbeat_interval=0.05
        )
        child = _start(supervisor, _sleep, 120)
        try:
            deadline = time.monotonic() + 10
            record = None
            while record is None:
                assert time.monotonic() < deadline, "no heartbeat published"
                record = supervisor.monitor.latest_for(child.pid)
                time.sleep(0.05)
            assert record["role"] == "harness"
            assert record["pid"] == child.pid
        finally:
            supervisor.reap(child, kill=True)
        assert supervisor.monitor.read_all() == []


class _PidSleeper:
    """Writes its pid into ``pid_dir``, then sleeps through any budget."""

    name = "pid-sleeper"

    def __init__(self, aig, pid_dir=None, **_):
        self.pid_dir = pid_dir

    def check(self, time_limit=None):
        open(os.path.join(self.pid_dir, str(os.getpid())), "w").close()
        time.sleep(120)
        return CheckOutcome(result=CheckResult.UNKNOWN, engine=self.name)


register_engine(
    "pid-sleeper-test", lambda aig, **kw: _PidSleeper(aig, **kw), overwrite=True
)


def _race_sleepers(pid_dir):
    return PortfolioEngine(
        token_ring(2).aig,
        engines=("pid-sleeper-test", "pid-sleeper-test"),
        reduce=False,
        member_kwargs={"pid-sleeper-test": {"pid_dir": pid_dir}},
    ).check(time_limit=60)


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return True
    return stat[stat.rindex(")") + 2] == "Z"


class TestProcessGroups:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_harness_kill_reaches_portfolio_members(self, tmp_path):
        # The members stay in the harness worker's process group, so the
        # worker's hard kill ends them although they never got their own
        # kill (their parent died first).
        (result,) = map_with_hard_timeout(
            _race_sleepers, [str(tmp_path)], timeout=0.5, grace=0.2
        )
        assert result.timed_out
        pids = [int(name) for name in os.listdir(tmp_path)]
        assert len(pids) == 2
        deadline = time.monotonic() + 5
        while not all(_gone_or_zombie(pid) for pid in pids):
            assert time.monotonic() < deadline, "a portfolio member survived"
            time.sleep(0.05)


def _quick_or_hang(payload):
    if payload == "hang":
        time.sleep(120)
    return payload


class TestHeartbeatRecords:
    def test_reaped_workers_leave_no_records(self):
        with heartbeat_session() as monitor:
            results = map_with_hard_timeout(
                _quick_or_hang, ["ok-1", "hang", "ok-2"], timeout=0.5, jobs=2, grace=0.2
            )
            assert [r.ok for r in results] == [True, False, True]
            assert monitor.read_all() == []
