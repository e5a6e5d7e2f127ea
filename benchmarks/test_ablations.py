"""Ablation benchmarks for the design choices behind the prediction scheme.

These are not experiments from the paper; they probe the knobs Algorithm 2
fixes implicitly:

* clearing the failure-push (CTP) table before every propagation phase
  versus keeping it across phases;
* refining the diff set with the new counterexample after a failed
  candidate (line 27) versus keeping the original diff set;
* the interaction between prediction and CTG-based generalization;
* the prediction candidate budget.
"""

import dataclasses

import pytest

from repro.benchgen import johnson_counter, modular_counter, round_robin_arbiter
from repro.core import IC3, CheckResult, IC3Options
from repro.core.options import GeneralizationStrategy


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


class TestCtpTableClearingAblation:
    @pytest.mark.parametrize("clear_table", [True, False], ids=["clear", "keep"])
    def test_clearing_policy(self, benchmark, clear_table):
        options = dataclasses.replace(
            IC3Options.profile_ic3_a().with_prediction(),
            clear_ctp_before_propagation=clear_table,
        )
        outcomes = benchmark.pedantic(_run_all, args=(options,), rounds=1, iterations=1)
        total_success = sum(o.stats.prediction_successes for o in outcomes)
        total_queries = sum(o.stats.prediction_queries for o in outcomes)
        print(
            f"\n[ablation ctp-table clear={clear_table}] "
            f"predictions {total_success}/{total_queries}"
        )
        assert total_queries > 0


class TestDiffSetRefinementAblation:
    @pytest.mark.parametrize("refine", [True, False], ids=["refine", "no-refine"])
    def test_refinement_policy(self, benchmark, refine):
        options = dataclasses.replace(
            IC3Options.profile_ic3_a().with_prediction(), refine_diff_set=refine
        )
        outcomes = benchmark.pedantic(_run_all, args=(options,), rounds=1, iterations=1)
        total_queries = sum(o.stats.prediction_queries for o in outcomes)
        total_success = sum(o.stats.prediction_successes for o in outcomes)
        print(
            f"\n[ablation diff-set refine={refine}] "
            f"predictions {total_success}/{total_queries}"
        )
        assert total_success > 0


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


class TestPredictionBudgetAblation:
    @pytest.mark.parametrize("budget", [1, 4, 16], ids=["budget1", "budget4", "budget16"])
    def test_candidate_budget(self, benchmark, budget):
        options = dataclasses.replace(
            IC3Options.profile_ic3_a().with_prediction(),
            max_prediction_candidates=budget,
        )
        outcomes = benchmark.pedantic(_run_all, args=(options,), rounds=1, iterations=1)
        per_general = [
            o.stats.prediction_queries / max(1, o.stats.generalizations)
            for o in outcomes
        ]
        print(f"\n[ablation budget={budget}] queries/generalization={per_general}")
        # The budget bounds the number of prediction queries per generalization.
        assert all(value <= budget + 1e-9 for value in per_general)
