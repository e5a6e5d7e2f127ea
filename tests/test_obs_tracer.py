"""Unit tests of the tracing core (``repro.obs.tracer``)."""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

import repro
from repro.obs.export import read_jsonl_events
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    Tracer,
    get_tracer,
    install,
    uninstall,
)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_KILLED_WRITER = """
import sys, time
from repro.obs.tracer import JsonlSink, Tracer
tracer = Tracer(sink=JsonlSink(sys.argv[1]))
for i in range(int(sys.argv[2])):
    tracer.instant(f"e{i}")
print("recorded", flush=True)
time.sleep(60)
"""


@pytest.fixture(autouse=True)
def _clean_tracer_state():
    """Every test starts and ends with tracing disabled."""
    uninstall()
    yield
    uninstall()


class TestDisabledTracer:
    def test_default_is_null_tracer(self):
        assert get_tracer() is NULL_TRACER
        assert get_tracer().enabled is False

    def test_disabled_span_is_one_shared_object(self):
        """The overhead guard: a disabled span allocates nothing."""
        tracer = get_tracer()
        spans = {id(tracer.span(f"s{i}", cat="x", arg=i)) for i in range(100)}
        assert len(spans) == 1  # one preallocated null span, reused

    def test_disabled_operations_record_nothing(self):
        tracer = get_tracer()
        with tracer.span("a"):
            tracer.instant("b")
            tracer.sample("c", 10_000_000)
        assert tracer.events() == []

    def test_null_tracer_has_no_instance_dict(self):
        """__slots__ keeps the null object allocation-free per call."""
        assert not hasattr(NullTracer(), "__dict__")

    def test_install_uninstall_round_trip(self):
        tracer = Tracer()
        install(tracer)
        assert get_tracer() is tracer
        assert uninstall() is tracer
        assert get_tracer() is NULL_TRACER


class TestSpans:
    def test_span_records_complete_event(self):
        tracer = install(Tracer())
        with tracer.span("work", cat="test", size=3) as span:
            span.add(result="ok")
        (event,) = tracer.events()
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["cat"] == "test"
        assert event["dur"] >= 0
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_native_id()
        assert event["args"] == {"size": 3, "result": "ok"}

    def test_span_marks_aborted_on_exception(self):
        tracer = install(Tracer())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (event,) = tracer.events()
        assert event["args"]["aborted"] is True

    def test_nesting_preserves_start_order_per_thread(self):
        tracer = install(Tracer())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events()  # inner closes (and records) first
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_thread_safety_under_concurrent_spans(self):
        tracer = install(Tracer())
        errors = []

        def worker(tag):
            try:
                for i in range(200):
                    with tracer.span(f"{tag}-{i}", cat="thread"):
                        tracer.instant(f"{tag}-i{i}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"t{n}",)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        events = tracer.events()
        assert len(events) == 4 * 200 * 2
        # Each event is tagged with the thread that recorded it, and
        # every one of the 4 threads shows up.
        assert len({e["tid"] for e in events}) == 4

    def test_instant_event_shape(self):
        tracer = install(Tracer())
        tracer.instant("tick", cat="test", k=2)
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert event["args"] == {"k": 2}


class TestSampling:
    def test_sample_emits_once_per_bucket(self):
        tracer = install(Tracer(sample_every=100))
        for count in range(0, 1000, 10):
            tracer.sample("conflicts", count)
        events = tracer.events()
        # Buckets 0..9 -> exactly 10 instants out of 100 calls.
        assert len(events) == 10
        assert [e["args"]["count"] // 100 for e in events] == list(range(10))

    def test_sample_buckets_are_per_name(self):
        tracer = install(Tracer(sample_every=100))
        tracer.sample("a", 5)
        tracer.sample("b", 7)
        assert len(tracer.events()) == 2


class TestSinkAndMemory:
    def test_parent_keeps_every_event_in_memory(self):
        tracer = Tracer()
        for i in range(100):
            tracer.instant(f"e{i}")
        assert [e["name"] for e in tracer.events()] == [f"e{i}" for i in range(100)]

    def test_jsonl_sink_appends_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        tracer = Tracer(sink=JsonlSink(path))
        tracer.instant("one")
        tracer.instant("two")
        tracer.close()
        lines = [json.loads(line) for line in open(path)]
        assert [line["name"] for line in lines] == ["one", "two"]

    def test_sink_tracer_writes_to_the_sink_only(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        tracer = Tracer(sink=JsonlSink(path))
        with tracer.span("work"):
            tracer.instant("tick")
        tracer.close()
        assert tracer.events() == []
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["tick", "work"]

    def test_sigkilled_writer_keeps_every_event(self, tmp_path):
        # The child records N events, reports, and is SIGKILLed before
        # close() can run: every event it recorded is on disk.
        path = str(tmp_path / "events.jsonl")
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_WRITER, path, "37"],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        try:
            assert child.stdout.readline() == b"recorded\n"
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        events = read_jsonl_events(path)
        assert [event["name"] for event in events] == [f"e{i}" for i in range(37)]
