"""Unit tests of the one observability bootstrap (``repro.obs.bootstrap``)."""

import json
import os

import pytest

from repro.obs.bootstrap import (
    HEARTBEAT_SUBDIR,
    OBS_DIR_ENV,
    TRACE_SUBDIR,
    heartbeat_dir,
    install_worker,
    session,
    shutdown_worker,
)
from repro.obs.heartbeat import (
    NULL_HEARTBEAT,
    Heartbeat,
    HeartbeatMonitor,
    get_heartbeat,
    install_heartbeat,
    uninstall_heartbeat,
)
from repro.obs.tracer import NULL_TRACER, JsonlSink, Tracer, get_tracer, install, uninstall


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    """Every test starts and ends outside any session, with both layers off."""
    monkeypatch.delenv(OBS_DIR_ENV, raising=False)
    uninstall()
    uninstall_heartbeat()
    yield
    uninstall()
    uninstall_heartbeat()


def _session_dir(tmp_path, monkeypatch, *layers):
    """Point this process at ``tmp_path`` as a session asking for ``layers``."""
    for layer in layers:
        (tmp_path / layer).mkdir()
    monkeypatch.setenv(OBS_DIR_ENV, str(tmp_path))


class TestWorkerBootstrap:
    def test_no_session_installs_nothing(self):
        install_worker("worker")
        assert get_tracer() is NULL_TRACER
        assert get_heartbeat() is NULL_HEARTBEAT
        assert heartbeat_dir() is None
        shutdown_worker()

    def test_trace_only_session_installs_a_sink_tracer(self, tmp_path, monkeypatch):
        _session_dir(tmp_path, monkeypatch, TRACE_SUBDIR)
        install_worker("role")
        tracer = get_tracer()
        assert tracer.enabled and get_heartbeat() is NULL_HEARTBEAT
        tracer.instant("hello")
        shutdown_worker()
        assert get_tracer() is NULL_TRACER
        sink = tmp_path / TRACE_SUBDIR / f"role-{os.getpid()}.jsonl"
        assert json.loads(sink.read_text().splitlines()[0])["name"] == "hello"
        assert sorted(os.listdir(tmp_path)) == [TRACE_SUBDIR]

    def test_live_only_session_installs_a_publishing_heartbeat(self, tmp_path, monkeypatch):
        _session_dir(tmp_path, monkeypatch, HEARTBEAT_SUBDIR)
        assert heartbeat_dir() == str(tmp_path / HEARTBEAT_SUBDIR)
        install_worker("worker")
        heartbeat = get_heartbeat()
        assert heartbeat.enabled and get_tracer() is NULL_TRACER
        heartbeat.update(frame=7)
        shutdown_worker()
        assert get_heartbeat() is NULL_HEARTBEAT
        (record,) = HeartbeatMonitor(heartbeat_dir()).read_all()
        assert record["pid"] == os.getpid() and record["progress"] == {"frame": 7}
        assert sorted(os.listdir(tmp_path)) == [HEARTBEAT_SUBDIR]

    def test_worker_drops_what_it_inherited(self):
        parent_tracer = install(Tracer())
        install_heartbeat(Heartbeat(role="parent"))
        install_worker("worker")
        assert get_tracer() is NULL_TRACER
        assert get_heartbeat() is NULL_HEARTBEAT
        get_tracer().instant("lost")
        assert parent_tracer.events() == []
        shutdown_worker()


class TestSession:
    def test_without_layers_sets_nothing_up(self):
        with session() as monitor:
            assert monitor is None
            assert OBS_DIR_ENV not in os.environ
            assert get_tracer() is NULL_TRACER

    def test_trace_session_writes_chrome_trace_and_restores_state(self, tmp_path):
        out = tmp_path / "trace.json"
        with session(trace_out=str(out), label="unit") as monitor:
            root = os.environ[OBS_DIR_ENV]
            assert monitor is None
            assert sorted(os.listdir(root)) == [TRACE_SUBDIR]
            with get_tracer().span("inner", cat="test"):
                pass
        assert OBS_DIR_ENV not in os.environ
        assert get_tracer() is NULL_TRACER
        assert not os.path.exists(root)
        names = {event["name"] for event in json.loads(out.read_text())["traceEvents"]}
        assert {"unit", "inner"} <= names

    def test_trace_session_collects_worker_sinks(self, tmp_path):
        out = tmp_path / "trace.json"
        with session(trace_out=str(out)):
            trace_dir = os.path.join(os.environ[OBS_DIR_ENV], TRACE_SUBDIR)
            # Simulate a worker process writing its own sink.
            sink = JsonlSink(os.path.join(trace_dir, "fake-12345.jsonl"))
            sink.write(
                {"name": "w", "cat": "x", "ph": "i", "ts": 1, "s": "t",
                 "pid": 12345, "tid": 1, "args": {}}
            )
            sink.close()
        events = json.loads(out.read_text())["traceEvents"]
        assert any(e["name"] == "w" for e in events)

    def test_live_session_yields_a_monitor_and_restores_state(self):
        with session(live=True) as monitor:
            root = os.environ[OBS_DIR_ENV]
            assert sorted(os.listdir(root)) == [HEARTBEAT_SUBDIR]
            assert monitor.directory == heartbeat_dir()
            assert get_tracer() is NULL_TRACER
        assert OBS_DIR_ENV not in os.environ
        assert not os.path.exists(root)

    def test_nested_session_restores_the_outer_directory(self, tmp_path):
        with session(live=True):
            outer = os.environ[OBS_DIR_ENV]
            with session(trace_out=str(tmp_path / "t.json")):
                assert os.environ[OBS_DIR_ENV] != outer
            assert os.environ[OBS_DIR_ENV] == outer
        assert OBS_DIR_ENV not in os.environ

    def test_trace_is_written_when_the_body_raises(self, tmp_path):
        out = tmp_path / "trace.json"
        with pytest.raises(RuntimeError):
            with session(trace_out=str(out), label="failing"):
                raise RuntimeError("boom")
        assert OBS_DIR_ENV not in os.environ
        names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]}
        assert "failing" in names
