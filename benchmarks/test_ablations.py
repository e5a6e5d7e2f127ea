"""Ablation benchmarks for the design choices behind the prediction scheme.

These are not experiments from the paper:

* the interaction between prediction and CTG-based generalization;
* the bounds the engine fixes in code: the prediction query budget per
  generalization and the CTGs blocked per literal drop.
"""

import pytest

from repro.benchgen import johnson_counter, modular_counter, round_robin_arbiter
from repro.core import IC3, CheckResult, IC3Options
from repro.core.generalize import MAX_CTGS, CtgGeneralizer
from repro.core.options import GeneralizationStrategy
from repro.core.predict import MAX_PREDICTION_QUERIES, LemmaPredictor
from repro.harness.configs import paper_configurations


ABLATION_CASES = [
    modular_counter(5, modulus=30, bad_value=31),
    johnson_counter(8, safe=True),
    round_robin_arbiter(5, safe=True),
]


def _run_all(options):
    outcomes = []
    for case in ABLATION_CASES:
        outcome = IC3(case.aig, options).check(time_limit=60)
        assert outcome.result == CheckResult.SAFE, case.name
        outcomes.append(outcome)
    return outcomes


class TestPredictionWithCtgAblation:
    @pytest.mark.parametrize("prediction", [False, True], ids=["ctg", "ctg+pl"])
    def test_ctg_interaction(self, benchmark, prediction):
        options = IC3Options(
            generalization=GeneralizationStrategy.CTG,
            enable_prediction=prediction,
        )
        outcomes = benchmark.pedantic(_run_all, args=(options,), rounds=1, iterations=1)
        sat_calls = sum(o.stats.sat_calls for o in outcomes)
        print(f"\n[ablation ctg prediction={prediction}] sat_calls={sat_calls}")
        if prediction:
            assert sum(o.stats.prediction_successes for o in outcomes) > 0


class TestFixedBounds:
    """The bounds Algorithm 2 and ctgDown fix still bound the work."""

    def test_prediction_query_budget(self, benchmark, monkeypatch):
        per_call = []
        predict = LemmaPredictor.predict

        def counted(self, bad_cube, level):
            before = self.stats.prediction_queries
            prediction = predict(self, bad_cube, level)
            per_call.append(self.stats.prediction_queries - before)
            return prediction

        monkeypatch.setattr(LemmaPredictor, "predict", counted)
        options = IC3Options.profile_ic3_a().with_prediction()
        outcomes = benchmark.pedantic(_run_all, args=(options,), rounds=1, iterations=1)
        per_general = [
            o.stats.prediction_queries / max(1, o.stats.generalizations)
            for o in outcomes
        ]
        print(f"\n[budget] queries/generalization={per_general}, max per call={max(per_call)}")
        assert MAX_PREDICTION_QUERIES == 8
        assert all(value <= 8 for value in per_general)
        assert 0 < max(per_call) <= 8

    def test_abc_pdr_blocks_at_most_three_ctgs_per_drop(self, monkeypatch):
        per_drop = []
        attempt_drop = CtgGeneralizer._attempt_drop

        def counted(self, candidate, level):
            before = self.stats.ctg_blocked
            dropped = attempt_drop(self, candidate, level)
            per_drop.append(self.stats.ctg_blocked - before)
            return dropped

        monkeypatch.setattr(CtgGeneralizer, "_attempt_drop", counted)
        (pdr,) = [c for c in paper_configurations() if c.name == "ABC-PDR"]
        _run_all(pdr.options)
        assert MAX_CTGS == 3
        assert 0 < max(per_drop) <= 3
