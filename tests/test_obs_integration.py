"""End-to-end tracing tests: the CLI and killed workers."""

import json
import os
import time

import pytest

from repro.benchgen import token_ring
from repro.cli import main
from repro.harness.pool import map_with_hard_timeout
from repro.obs.export import read_jsonl_events, validate_trace_file
from repro.obs.tracer import TRACE_DIR_ENV, get_tracer, maybe_install_worker_tracer
from repro.aiger.writer import to_aag_string


@pytest.fixture(autouse=True)
def _no_ambient_trace(monkeypatch):
    monkeypatch.delenv(TRACE_DIR_ENV, raising=False)


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


def _stuck_worker(payload):
    tracer = get_tracer()
    for i in range(50):
        tracer.instant(f"progress-{i}", cat="harness", step=i)
    time.sleep(60)  # way past the hard deadline; SIGKILL ends us
    return "unreachable"


class TestKilledWorkerPostMortem:
    def test_sigkilled_worker_leaves_flight_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        (result,) = map_with_hard_timeout(
            _stuck_worker, ["job"], timeout=0.2, jobs=1, grace=0.2
        )
        assert result.timed_out
        flights = [n for n in os.listdir(tmp_path) if n.startswith("flight-harness-")]
        assert len(flights) == 1
        events = read_jsonl_events(str(tmp_path / flights[0]))
        # The ring snapshot survived the kill and is readable post mortem.
        assert events, "flight recorder left no readable events"
        assert any(e["name"].startswith("progress-") for e in events)

    def test_worker_activation_requires_env(self):
        assert maybe_install_worker_tracer("harness") is None

