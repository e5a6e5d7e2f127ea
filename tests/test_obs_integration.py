"""End-to-end observability tests: the CLI, pool workers and killed workers."""

import json
import os
import time

import pytest

from repro.benchgen import token_ring
from repro.cli import main
from repro.harness.pool import map_with_hard_timeout
from repro.obs import session
from repro.obs.bootstrap import HEARTBEAT_SUBDIR, OBS_DIR_ENV, TRACE_SUBDIR
from repro.obs.export import read_jsonl_events, validate_trace_file
from repro.obs.tracer import get_tracer
from repro.aiger.writer import to_aag_string


@pytest.fixture(autouse=True)
def _no_ambient_session(monkeypatch):
    monkeypatch.delenv(OBS_DIR_ENV, raising=False)


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "ring.aag"
    path.write_text(to_aag_string(token_ring(3, safe=True).aig))
    return str(path)


class TestCliTracing:
    def test_check_writes_valid_trace(self, tmp_path, model_file, capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["check", model_file, "--trace-out", trace]) == 0
        assert f"Trace written to {trace}" in capsys.readouterr().out
        assert validate_trace_file(trace) == []
        document = json.load(open(trace))
        cats = {event.get("cat") for event in document["traceEvents"]}
        # The whole stack shows up in one run: session wrapper, engine
        # adapter, IC3 phases, SAT kernel and the reduction pipeline.
        assert {"session", "engine", "ic3", "sat", "reduce"} <= cats
        assert OBS_DIR_ENV not in os.environ

    def test_portfolio_trace_stitches_member_processes(self, tmp_path, model_file):
        trace = str(tmp_path / "trace.json")
        assert main(["check", model_file, "--engine", "portfolio", "--trace-out", trace]) == 0
        assert validate_trace_file(trace) == []
        with open(trace, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        (parent,) = {e["pid"] for e in events if e["cat"] == "session"}
        assert parent == os.getpid()
        races = [e for e in events if e["name"] == "portfolio.race"]
        assert [e["pid"] for e in races] == [parent]
        members = [e for e in events if e["name"] == "portfolio.member"]
        # The winner answers before it is reaped, so its sink is complete.
        winner = races[0]["args"]["winner"]
        assert winner in {e["args"]["member"] for e in members}
        member_pids = {e["pid"] for e in members}
        assert parent not in member_pids
        # Each member's engine work is stitched in under its own pid.
        assert member_pids <= {e["pid"] for e in events if e["cat"] == "sat"}
        assert OBS_DIR_ENV not in os.environ

    def test_tracer_uninstalled_after_cli_run(self, tmp_path, model_file):
        main(["check", model_file, "--trace-out", str(tmp_path / "t.json")])
        assert get_tracer().enabled is False

    def test_trace_report_command(self, tmp_path, model_file, capsys):
        trace = str(tmp_path / "trace.json")
        main(["check", model_file, "--trace-out", trace])
        capsys.readouterr()
        assert main(["trace-report", trace, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "trace schema OK" in out
        assert "ic3" in out and "sat" in out

    def test_trace_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        assert main(["trace-report", str(bad), "--validate"]) == 1
        missing = tmp_path / "missing.json"
        assert main(["trace-report", str(missing)]) == 2


RECORDED = 71


def _stuck_worker(payload):
    tracer = get_tracer()
    for i in range(RECORDED):
        tracer.instant(f"progress-{i}", cat="harness", step=i)
    time.sleep(60)  # way past the hard deadline; SIGKILL ends us
    return "unreachable"


def _observed_layers(payload):
    """What a pool worker finds in its session's directory."""
    root = os.environ[OBS_DIR_ENV]
    return {layer: sorted(os.listdir(os.path.join(root, layer)))
            for layer in os.listdir(root)}


class TestPoolWorkers:
    def test_sigkilled_worker_sink_holds_every_recorded_event(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / TRACE_SUBDIR).mkdir()
        monkeypatch.setenv(OBS_DIR_ENV, str(tmp_path))
        (result,) = map_with_hard_timeout(
            _stuck_worker, ["job"], timeout=0.2, jobs=1, grace=0.2
        )
        assert result.timed_out
        (sink,) = os.listdir(tmp_path / TRACE_SUBDIR)
        assert sink.startswith("harness-")
        events = read_jsonl_events(str(tmp_path / TRACE_SUBDIR / sink))
        # Every instant reached the file before the kill; only the
        # never-closed harness.task span is missing.
        assert [e["name"] for e in events] == [f"progress-{i}" for i in range(RECORDED)]

    def test_live_only_session_writes_heartbeats_and_no_trace(self):
        with session(live=True) as monitor:
            (result,) = map_with_hard_timeout(_observed_layers, ["x"], timeout=10.0)
            assert monitor.read_all() == []  # reaped workers leave no record
        (record,) = result.value[HEARTBEAT_SUBDIR]
        assert record.startswith("hb-harness-")
        assert list(result.value) == [HEARTBEAT_SUBDIR]
        assert OBS_DIR_ENV not in os.environ

    def test_trace_only_session_writes_trace_files_and_no_heartbeat(self, tmp_path):
        out = tmp_path / "trace.json"
        with session(trace_out=str(out)) as monitor:
            assert monitor is None
            (result,) = map_with_hard_timeout(_observed_layers, ["x"], timeout=10.0)
        (sink,) = result.value[TRACE_SUBDIR]
        assert sink.startswith("harness-") and sink.endswith(".jsonl")
        assert list(result.value) == [TRACE_SUBDIR]
        events = json.loads(out.read_text())["traceEvents"]
        tasks = [e for e in events if e["name"] == "harness.task"]
        assert len(tasks) == 1 and tasks[0]["pid"] != os.getpid()
        assert OBS_DIR_ENV not in os.environ
