"""Tests for statistics (Table 2 rates) and result containers."""

import dataclasses

import pytest

from repro.core import CheckOutcome, CheckResult, Certificate, CounterexampleTrace
from repro.core.result import TraceStep
from repro.core.stats import IC3Stats
from repro.logic import Clause, Cube


class TestSuccessRates:
    def test_rates_none_when_no_activity(self):
        stats = IC3Stats()
        assert stats.sr_lp is None
        assert stats.sr_fp is None
        assert stats.sr_adv is None

    def test_sr_lp_definition(self):
        stats = IC3Stats(prediction_queries=10, prediction_successes=4)
        assert stats.sr_lp == pytest.approx(0.4)

    def test_sr_fp_definition(self):
        stats = IC3Stats(generalizations=20, parent_lemma_hits=8)
        assert stats.sr_fp == pytest.approx(0.4)

    def test_sr_adv_definition(self):
        stats = IC3Stats(generalizations=20, prediction_successes=5)
        assert stats.sr_adv == pytest.approx(0.25)

    def test_sr_adv_never_exceeds_sr_fp_in_engine_semantics(self):
        # Not a structural guarantee of the dataclass, but the engine can only
        # succeed on a prediction when it found a failed-push parent first.
        stats = IC3Stats(
            generalizations=10, parent_lemma_hits=6, prediction_successes=4
        )
        assert stats.sr_adv <= stats.sr_fp

    def test_as_dict_contains_rates_and_counters(self):
        stats = IC3Stats(prediction_queries=2, prediction_successes=1, generalizations=4)
        data = stats.as_dict()
        assert data["prediction_queries"] == 2
        assert data["sr_lp"] == pytest.approx(0.5)
        assert data["sr_adv"] == pytest.approx(0.25)

    def test_as_dict_keys_are_every_field_plus_rates(self):
        data = IC3Stats(sat_time=0.5).as_dict()
        names = [field.name for field in dataclasses.fields(IC3Stats)]
        assert list(data) == names + ["sr_lp", "sr_fp", "sr_adv"]
        assert data["sat_time"] == 0.5

    def test_merge_adds_counters(self):
        a = IC3Stats(sat_calls=3, generalizations=1, time_total=1.5)
        b = IC3Stats(sat_calls=4, generalizations=2, time_total=0.5)
        merged = a.merge(b)
        assert merged.sat_calls == 7
        assert merged.generalizations == 3
        assert merged.time_total == pytest.approx(2.0)


class TestResultContainers:
    def test_check_result_solved(self):
        assert CheckResult.SAFE.solved
        assert CheckResult.UNSAFE.solved
        assert not CheckResult.UNKNOWN.solved

    def test_certificate_length(self):
        certificate = Certificate(clauses=[Clause([1, 2]), Clause([-3])])
        assert len(certificate) == 2

    def test_trace_depth_and_inputs(self):
        trace = CounterexampleTrace(
            steps=[
                TraceStep(state=Cube([1]), inputs={2: True}),
                TraceStep(state=Cube([-1]), inputs={2: False}),
            ]
        )
        assert len(trace) == 2
        assert trace.depth == 1
        assert trace.input_sequence() == [{2: True}, {2: False}]

    def test_empty_trace_depth(self):
        assert CounterexampleTrace(steps=[]).depth == 0

    def test_outcome_summary_safe(self):
        outcome = CheckOutcome(
            result=CheckResult.SAFE,
            runtime=1.25,
            certificate=Certificate(clauses=[Clause([1])]),
            engine="ic3",
        )
        summary = outcome.summary()
        assert "safe" in summary
        assert "1 clauses" in summary

    def test_outcome_summary_unsafe(self):
        outcome = CheckOutcome(
            result=CheckResult.UNSAFE,
            trace=CounterexampleTrace(
                steps=[TraceStep(state=Cube([1]), inputs={})]
            ),
            engine="ic3-pl",
        )
        assert "counterexample" in outcome.summary()

    def test_outcome_summary_unknown_includes_reason(self):
        outcome = CheckOutcome(result=CheckResult.UNKNOWN, reason="time limit reached")
        assert "time limit reached" in outcome.summary()
        assert not outcome.solved
