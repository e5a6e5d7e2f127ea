"""Tests of trace export, validation, worker collection and hotspot reports."""

import json

from repro.obs.export import (
    collect_worker_events,
    read_jsonl_events,
    read_trace,
    to_chrome_document,
    validate_chrome_trace,
    validate_trace_file,
    wall_span_us,
    write_chrome_trace,
)
from repro.obs.report import format_report, hotspots, phase_totals
from repro.obs.tracer import Tracer, install, uninstall


def _x(name, ts, dur, cat="test", pid=1, tid=1):
    return {
        "name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
        "pid": pid, "tid": tid, "args": {},
    }


def _i(name, ts, cat="test", pid=1, tid=1):
    return {
        "name": name, "cat": cat, "ph": "i", "ts": ts, "s": "t",
        "pid": pid, "tid": tid, "args": {},
    }


class TestChromeExport:
    def test_real_tracer_output_passes_validation(self):
        tracer = install(Tracer())
        try:
            with tracer.span("outer", cat="a"):
                with tracer.span("inner", cat="b", n=1):
                    tracer.instant("tick", cat="b")
                tracer.sample("counter", 5000, cat="a")
            document = to_chrome_document(tracer.events())
        finally:
            uninstall()
        assert validate_chrome_trace(document) == []
        assert document["displayTimeUnit"] == "ms"
        assert [e["name"] for e in document["traceEvents"]][0] == "outer"

    def test_enclosing_span_first_when_spans_start_together(self):
        events = [_i("tick", 10), _x("inner", 10, 2), _x("outer", 10, 5), _x("early", 9, 1)]
        names = [e["name"] for e in to_chrome_document(events)["traceEvents"]]
        assert names == ["early", "outer", "inner", "tick"]

    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "t.json")
        events = [_x("a", 10, 5), _i("b", 12)]
        write_chrome_trace(path, events)
        assert read_trace(path) == to_chrome_document(events)["traceEvents"]
        assert validate_trace_file(path) == []

    def test_validation_catches_malformed_events(self):
        document = {
            "traceEvents": [
                {"ph": "X", "ts": 1, "pid": 1, "tid": 1},  # no name, no dur
                {"name": "x", "ph": "Z", "ts": 1, "pid": 1, "tid": 1},
                {"name": "y", "ph": "X", "ts": 1, "dur": -5, "pid": 1, "tid": 1},
                "not-an-object",
            ]
        }
        problems = validate_chrome_trace(document)
        assert any("missing required key 'name'" in p for p in problems)
        assert any("lacks dur" in p for p in problems)
        assert any("unknown phase 'Z'" in p for p in problems)
        assert any("negative dur" in p for p in problems)
        assert any("not an object" in p for p in problems)

    def test_non_document_inputs_rejected(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []


class TestJsonlIngestion:
    def test_truncated_last_line_tolerated(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        good = json.dumps(_x("done", 1, 2))
        path.write_text(good + "\n" + json.dumps(_x("cut", 3, 4))[:17])
        events = read_jsonl_events(str(path))
        assert [e["name"] for e in events] == ["done"]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_jsonl_events(str(tmp_path / "absent.jsonl")) == []

    def test_read_trace_detects_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(_i("only", 1)) + "\n")
        assert [e["name"] for e in read_trace(str(path))] == ["only"]


class TestWorkerCollection:
    def test_reads_every_worker_sink_and_nothing_else(self, tmp_path):
        (tmp_path / "harness-111.jsonl").write_text(json.dumps(_i("one", 1)) + "\n")
        (tmp_path / "portfolio-bmc-222.jsonl").write_text(json.dumps(_i("two", 2)) + "\n")
        (tmp_path / "hb-harness-111.json").write_text(json.dumps(_i("record", 3)))
        names = sorted(e["name"] for e in collect_worker_events(str(tmp_path)))
        assert names == ["one", "two"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert collect_worker_events(str(tmp_path / "nope")) == []

    def test_chrome_document_orders_events_across_processes(self):
        document = to_chrome_document([_x("b", 20, 1, pid=2), _x("a", 10, 1, pid=1)])
        assert [e["name"] for e in document["traceEvents"]] == ["a", "b"]


class TestHotspots:
    def test_self_time_subtracts_nested_children(self):
        # outer [0, 100) contains inner [10, 40) contains leaf [20, 25).
        events = [
            _x("outer", 0, 100, cat="a"),
            _x("inner", 10, 30, cat="b"),
            _x("leaf", 20, 5, cat="c"),
        ]
        rows = {row.phase: row for row in hotspots(events)}
        assert rows["a"].self_us == 70.0  # 100 - 30
        assert rows["b"].self_us == 25.0  # 30 - 5
        assert rows["c"].self_us == 5.0
        assert sum(row.self_us for row in rows.values()) == 100.0

    def test_siblings_are_not_treated_as_nested(self):
        events = [_x("a", 0, 10, cat="a"), _x("b", 10, 10, cat="b")]
        rows = {row.phase: row for row in hotspots(events)}
        assert rows["a"].self_us == 10.0
        assert rows["b"].self_us == 10.0

    def test_tracks_are_independent(self):
        # Same timestamps on different threads must not nest.
        events = [_x("a", 0, 100, tid=1, cat="a"), _x("b", 10, 30, tid=2, cat="b")]
        rows = {row.phase: row for row in hotspots(events)}
        assert rows["a"].self_us == 100.0
        assert rows["b"].self_us == 30.0

    def test_instants_counted_per_phase(self):
        rows = {r.phase: r for r in hotspots([_i("t", 5, cat="sat")] * 3)}
        assert rows["sat"].instants == 3
        assert rows["sat"].spans == 0

    def test_phase_totals_in_seconds(self):
        totals = phase_totals([_x("a", 0, 2_000_000, cat="sat")])
        assert totals == {"sat": 2.0}

    def test_format_report_renders_all_phases(self):
        report = format_report(
            [_x("a", 0, 100, cat="ic3"), _x("b", 10, 20, cat="sat"), _i("c", 5, cat="sat")]
        )
        assert "ic3" in report and "sat" in report
        assert "wall clock" in report

    def test_wall_span(self):
        assert wall_span_us([_x("a", 10, 30), _x("b", 25, 5)]) == 30.0
        assert wall_span_us([]) is None
