"""Failure-path and live-progress tests of the serve telemetry layer.

Covers the heartbeat stall watchdog (a SIGSTOPped worker is detected and
replaced long before its hard deadline), crash accounting for SIGKILLed
workers, and the ``job_progress`` introspection fed by worker heartbeats.
Like :mod:`tests.test_serve_workers`, the hang scenarios monkeypatch
``workers._execute_job`` before the pool forks so a marker value in the
job options makes a worker sleep on demand.
"""

import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time

import pytest

from repro.aiger.parser import parse_aiger
from repro.aiger.writer import to_aag_string
from repro.benchgen import johnson_counter, token_ring
from repro.serve import workers
from repro.serve.jobqueue import JobQueue
from repro.serve.metrics import Metrics
from repro.serve.protocol import JobOptions, text_sha
from repro.serve.service import VerificationService
from repro.serve.workers import WarmWorkerPool

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="marker-based worker fault injection needs the fork start method",
)

MODEL_TEXT = to_aag_string(token_ring(2, safe=True).aig)
# Wide Johnson counter: several seconds of IC3 with a frame count that
# advances every few tens of milliseconds — ideal for progress polling.
SLOW_TEXT = to_aag_string(johnson_counter(48, safe=True).aig)

HANG_MARKER = 424242


def make_payload(job_id: str, *, timeout: float = 20.0, max_k: int = 20):
    options = JobOptions(engine="ic3-pl", timeout=timeout, max_k=max_k)
    return (
        job_id,
        {
            "job_id": job_id,
            "aig": parse_aiger(MODEL_TEXT),
            "digest": "d" * 64,
            "text_sha": text_sha(MODEL_TEXT),
            "options": options,
        },
    )


class Collector:
    def __init__(self):
        self.results = {}
        self.kinds = {}
        self.cond = threading.Condition()

    def __call__(self, job_id, record, kind):
        with self.cond:
            self.results[job_id] = record
            self.kinds[job_id] = kind
            self.cond.notify_all()

    def wait(self, count, timeout=60.0):
        with self.cond:
            ok = self.cond.wait_for(lambda: len(self.results) >= count, timeout)
        assert ok, f"only {sorted(self.results)} finished"


@pytest.fixture
def fault_injection(monkeypatch):
    original = workers._execute_job

    def patched(payload, warm):
        if payload["options"].max_k == HANG_MARKER:
            time.sleep(120)
        return original(payload, warm)

    monkeypatch.setattr(workers, "_execute_job", patched)


@pytest.fixture
def heartbeat_dir():
    path = tempfile.mkdtemp(prefix="repro-hb-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _job_heartbeat(pool, pid, job):
    """The worker's latest heartbeat record once it names ``job``."""
    record = pool.worker_heartbeat(pid)
    if record and record.get("progress", {}).get("job") == job:
        return record
    return None


class TestStallWatchdog:
    def test_sigstop_trips_watchdog_before_hard_deadline(
        self, fault_injection, heartbeat_dir
    ):
        queue = JobQueue(maxsize=4)
        collector = Collector()
        metrics = Metrics()
        # No trace_dir: the worker never installs a tracer, yet the
        # heartbeat channel must work on its own.
        pool = WarmWorkerPool(
            queue,
            collector,
            size=1,
            metrics=metrics,
            heartbeat_dir=heartbeat_dir,
            heartbeat_interval=0.05,
            stall_timeout=1.0,
        )
        pool.start()
        try:
            queue.put(make_payload("frozen", timeout=60.0, max_k=HANG_MARKER))
            worker = _wait_for(
                lambda: pool.worker_for_job("frozen"), message="job to start"
            )
            # The worker's idle record can still be the latest one when
            # the pool already lists the job: wait for the job's record.
            record = _wait_for(
                lambda: _job_heartbeat(pool, worker["pid"], "frozen"),
                message="first heartbeat of the job",
            )
            assert record["role"] == "serve"
            assert record["progress"]["job"] == "frozen"

            # A *sleeping* worker is not a stall: its publisher thread
            # keeps the heartbeat fresh, so waiting well past the stall
            # budget must not trip the watchdog.
            time.sleep(2.0)
            assert metrics.get("worker_stalls") == 0

            # Freeze the whole process (publisher thread included); the
            # record ages out and the watchdog replaces the worker far
            # before the 60 s hard deadline.
            started = time.monotonic()
            os.kill(worker["pid"], signal.SIGSTOP)
            collector.wait(1, timeout=20.0)
            assert time.monotonic() - started < 20.0
            assert metrics.get("worker_stalls") == 1
            assert collector.kinds["frozen"] == "stall"
            assert "stalled" in collector.results["frozen"]["error"]
        finally:
            pool.stop()

    def test_sigkill_counts_as_crash_before_deadline(
        self, fault_injection, heartbeat_dir
    ):
        queue = JobQueue(maxsize=4)
        collector = Collector()
        metrics = Metrics()
        pool = WarmWorkerPool(
            queue,
            collector,
            size=1,
            metrics=metrics,
            heartbeat_dir=heartbeat_dir,
            heartbeat_interval=0.05,
            stall_timeout=5.0,
        )
        pool.start()
        try:
            queue.put(make_payload("killed", timeout=60.0, max_k=HANG_MARKER))
            worker = _wait_for(
                lambda: pool.worker_for_job("killed"), message="job to start"
            )
            started = time.monotonic()
            os.kill(worker["pid"], signal.SIGKILL)
            collector.wait(1, timeout=20.0)
            # The pipe EOF reports the death within seconds — the crash
            # path wins the race against both the watchdog and the
            # 60 s hard deadline.
            assert time.monotonic() - started < 10.0
            assert collector.kinds["killed"] == "crash"
            assert metrics.get("worker_crashes") == 1
            assert metrics.get("worker_stalls") == 0
        finally:
            pool.stop()


class TestJobProgress:
    def test_unknown_job_has_no_progress(self):
        service = VerificationService(workers=1)
        try:
            assert service.job_progress("job-unknown") is None
        finally:
            service.stop()

    def test_queued_job_reports_status_without_worker(self):
        service = VerificationService(workers=1, default_timeout=20.0)
        service.start()
        try:
            service.pool.pause()
            status, payload = service.submit(
                MODEL_TEXT, options=JobOptions(engine="ic3-pl", timeout=20.0)
            )
            assert status == 202
            progress = service.job_progress(payload["id"])
            assert progress["status"] == "queued"
            assert "worker" not in progress
            service.pool.resume()
            service.wait(payload["id"], timeout=60.0)
        finally:
            service.stop()

    def test_running_job_reports_advancing_frames(self):
        service = VerificationService(
            workers=1, default_timeout=60.0, heartbeat_interval=0.05
        )
        service.start()
        try:
            status, payload = service.submit(
                SLOW_TEXT, options=JobOptions(engine="ic3-pl", timeout=60.0)
            )
            assert status == 202
            job_id = payload["id"]

            def _frame_progress():
                progress = service.job_progress(job_id)
                heartbeat = (progress or {}).get("heartbeat") or {}
                if "frame" in heartbeat:
                    return progress
                return None

            first = _wait_for(_frame_progress, timeout=30.0, message="first frame")
            second = _wait_for(
                lambda: (
                    lambda p: p
                    if p is not None
                    and p["heartbeat"]["frame"] > first["heartbeat"]["frame"]
                    else None
                )(_frame_progress()),
                timeout=30.0,
                message="frame advance",
            )
            assert second["heartbeat"]["frame"] > first["heartbeat"]["frame"]
            assert second["heartbeat"]["seq"] > first["heartbeat"]["seq"]
            assert second["heartbeat"]["engine"] == "ic3-pl"
            assert second["worker"]["pid"] > 0
            done = service.wait(job_id, timeout=120.0)
            assert done["result"]["result"] == "safe"
        finally:
            service.stop()
