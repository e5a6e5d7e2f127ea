"""End-to-end tests of the IC3 engine (with and without lemma prediction)."""

import pytest

from repro.aiger import AIG, parse_aiger
from repro.benchgen import (
    combination_lock,
    counter_overflow,
    fifo_controller,
    johnson_counter,
    lfsr,
    modular_counter,
    parity_counter,
    pipeline_tag,
    round_robin_arbiter,
    token_ring,
    traffic_light,
)
from repro.core import (
    IC3,
    BMC,
    CheckResult,
    IC3Options,
    check_certificate,
    check_counterexample,
)
from repro.core.options import GeneralizationStrategy


BASE = IC3Options.profile_ic3_a()
PRED = IC3Options.profile_ic3_a().with_prediction()

# A constrained safety model: the liveness-to-safety monitor of a 3-stage
# token ring that never starves (2 inputs, 10 latches, 1 bad, 1 invariant
# constraint).  With ternary lifting on, IC3 once shrank predecessors to
# partial cubes whose replay left the constrained state space and reported
# this SAFE model UNSAFE; IC3 now skips lifting on constrained models.
CONSTRAINED_SAFE_AAG = """aag 47 2 10 0 35 1 1
    2 | 16 | 4 8 1 | 6 4 | 8 6 | 10 13 | 18 21 | 24 31 |
    32 39 | 40 47 | 48 55 | 56 60 | 94 | 15 | 12 11 3 | 14 10 4 |
    20 19 17 | 22 19 16 | 26 22 4 | 28 24 23 | 30 29 27 | 34 22 6 | 36 32 23 | 38 37 35 |
    42 22 8 | 44 40 23 | 46 45 43 | 50 22 10 | 52 48 23 | 54 53 51 | 58 57 11 | 60 59 21 |
    62 25 4 | 64 24 5 | 66 65 63 | 68 33 6 | 70 32 7 | 72 71 69 | 74 41 8 | 76 40 9 |
    78 77 75 | 80 49 10 | 82 48 11 | 84 83 81 | 86 72 66 | 88 86 78 | 90 88 84 | 92 90 18 |
    94 92 56
""".replace(" | ", "\n").replace(" |\n", "\n")


def _check(case, options, time_limit=60):
    return IC3(case.aig, options).check(time_limit=time_limit)


class TestSafeVerdicts:
    @pytest.mark.parametrize(
        "case_factory",
        [
            lambda: token_ring(4),
            lambda: johnson_counter(4),
            lambda: lfsr(4),
            lambda: pipeline_tag(4),
            lambda: round_robin_arbiter(3),
            lambda: fifo_controller(3),
            lambda: traffic_light(safe=True),
            lambda: modular_counter(4, modulus=14, bad_value=15),
            lambda: parity_counter(4),
            lambda: counter_overflow(4, safe=True),
        ],
        ids=lambda f: f().family + "-" + f().name,
    )
    @pytest.mark.parametrize("options", [BASE, PRED], ids=["base", "prediction"])
    def test_safe_cases_with_valid_certificates(self, case_factory, options):
        case = case_factory()
        outcome = _check(case, options)
        assert outcome.result == CheckResult.SAFE
        assert outcome.certificate is not None
        assert check_certificate(case.aig, outcome.certificate)

    def test_safe_certificate_clauses_over_state_vars(self):
        case = token_ring(4)
        engine = IC3(case.aig, PRED)
        outcome = engine.check(time_limit=60)
        assert outcome.result == CheckResult.SAFE
        state_vars = set(engine.ts.latch_vars)
        for clause in outcome.certificate.clauses:
            assert {abs(l) for l in clause} <= state_vars


class TestUnsafeVerdicts:
    @pytest.mark.parametrize(
        "case_factory",
        [
            lambda: token_ring(4, safe=False),
            lambda: johnson_counter(4, safe=False),
            lambda: lfsr(4, safe=False, unsafe_depth=3),
            lambda: pipeline_tag(4, safe=False),
            lambda: round_robin_arbiter(3, safe=False),
            lambda: fifo_controller(2, safe=False),
            lambda: traffic_light(safe=False),
            lambda: modular_counter(3, modulus=7, bad_value=4),
            lambda: parity_counter(3, safe=False),
            lambda: combination_lock([1, 2, 3]),
        ],
        ids=lambda f: f().name,
    )
    @pytest.mark.parametrize("options", [BASE, PRED], ids=["base", "prediction"])
    def test_unsafe_cases_with_replayable_traces(self, case_factory, options):
        case = case_factory()
        outcome = _check(case, options)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace is not None
        assert check_counterexample(case.aig, outcome.trace)

    @pytest.mark.parametrize("options", [BASE, PRED], ids=["base", "prediction"])
    def test_counterexample_depth_is_minimal_for_counter(self, options):
        # IC3 does not guarantee shortest counterexamples in general, but it
        # cannot find one shorter than the real shortest path.
        case = modular_counter(3, modulus=7, bad_value=4)
        outcome = _check(case, options)
        assert outcome.trace.depth >= case.expected_depth

    def test_bad_initial_state_detected(self):
        case = modular_counter(3, modulus=8, bad_value=0)
        outcome = _check(case, PRED)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace.depth == 0

    def test_trace_inputs_recorded(self):
        case = combination_lock([2, 1])
        outcome = _check(case, PRED)
        assert outcome.result == CheckResult.UNSAFE
        assert len(outcome.trace.steps) >= 2
        assert all(isinstance(step.inputs, dict) for step in outcome.trace.steps)


class TestSpecialCases:
    def test_combinational_safe(self):
        aig = AIG()
        a = aig.add_input()
        aig.add_bad(aig.add_and(a, aig.negate(a)))
        outcome = IC3(aig).check()
        assert outcome.result == CheckResult.SAFE

    def test_combinational_unsafe(self):
        aig = AIG()
        a = aig.add_input()
        b = aig.add_input()
        aig.add_bad(aig.add_and(a, b))
        outcome = IC3(aig).check()
        assert outcome.result == CheckResult.UNSAFE

    def test_multiple_properties_selectable(self):
        aig = AIG()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, aig.negate(latch))
        aig.add_bad(latch)                      # reachable at step 1
        aig.add_bad(aig.add_and(latch, aig.negate(latch)))  # never
        assert IC3(aig, property_index=0).check().result == CheckResult.UNSAFE
        assert IC3(aig, property_index=1).check().result == CheckResult.SAFE

    @pytest.mark.parametrize("options", [BASE, PRED], ids=["ic3", "ic3-pl"])
    def test_constrained_model_is_not_refuted_by_lifted_cubes(self, options):
        aig = parse_aiger(CONSTRAINED_SAFE_AAG)
        assert (aig.num_latches, len(aig.constraints)) == (10, 1)
        outcome = IC3(aig, options).check(time_limit=60)
        assert outcome.result == CheckResult.SAFE
        assert check_certificate(aig, outcome.certificate)

    def test_timeout_returns_unknown(self):
        case = parity_counter(8)
        outcome = _check(case, BASE, time_limit=0.2)
        assert outcome.result == CheckResult.UNKNOWN
        assert "time limit" in outcome.reason

    def test_frame_limit_returns_unknown(self):
        import dataclasses
        options = dataclasses.replace(BASE, max_frames=2)
        case = modular_counter(4, modulus=14, bad_value=15)
        outcome = _check(case, options)
        assert outcome.result in (CheckResult.UNKNOWN, CheckResult.SAFE)
        if outcome.result == CheckResult.UNKNOWN:
            assert "frame limit" in outcome.reason

    def test_outcome_metadata(self):
        case = token_ring(3)
        outcome = _check(case, PRED)
        assert outcome.solved
        assert outcome.runtime > 0
        assert outcome.frames >= 1
        assert outcome.engine == "ic3-pl"
        assert "safe" in outcome.summary()


class TestPredictionBehaviour:
    def test_prediction_statistics_populated(self):
        case = modular_counter(5, modulus=30, bad_value=31)
        outcome = _check(case, PRED)
        stats = outcome.stats
        assert outcome.result == CheckResult.SAFE
        assert stats.generalizations > 0
        assert stats.prediction_queries > 0
        assert stats.prediction_successes > 0
        assert stats.ctp_recorded > 0
        assert stats.sr_adv is not None and stats.sr_adv > 0
        assert stats.sr_lp is not None and 0 < stats.sr_lp <= 1

    def test_base_engine_never_predicts(self):
        case = modular_counter(5, modulus=30, bad_value=31)
        outcome = _check(case, BASE)
        assert outcome.stats.prediction_queries == 0
        assert outcome.stats.prediction_successes == 0

    def test_prediction_reduces_drop_attempts(self):
        case = johnson_counter(6)
        base = _check(case, BASE)
        predicted = _check(case, PRED)
        assert base.result == predicted.result == CheckResult.SAFE
        assert predicted.stats.mic_drop_attempts < base.stats.mic_drop_attempts

    def test_prediction_agrees_with_base_on_suite(self):
        for case in [
            token_ring(5),
            token_ring(4, safe=False),
            fifo_controller(3),
            fifo_controller(2, safe=False),
            lfsr(5),
            combination_lock([1, 2]),
        ]:
            base = _check(case, BASE)
            predicted = _check(case, PRED)
            assert base.result == predicted.result, case.name

    def test_all_strategy_and_prediction_combinations(self):
        case = token_ring(4)
        for strategy in GeneralizationStrategy:
            for prediction in (False, True):
                options = IC3Options(
                    generalization=strategy, enable_prediction=prediction
                )
                outcome = _check(case, options)
                assert outcome.result == CheckResult.SAFE, (strategy, prediction)

    def test_ctp_table_clearing_toggle(self):
        import dataclasses
        case = modular_counter(4, modulus=14, bad_value=15)
        keep = dataclasses.replace(PRED, clear_ctp_before_propagation=False)
        outcome_clear = _check(case, PRED)
        outcome_keep = _check(case, keep)
        assert outcome_clear.result == outcome_keep.result == CheckResult.SAFE
        assert outcome_keep.stats.ctp_table_clears == 0

    def test_diffset_refinement_toggle(self):
        import dataclasses
        case = modular_counter(4, modulus=14, bad_value=15)
        no_refine = dataclasses.replace(PRED, refine_diff_set=False)
        outcome = _check(case, no_refine)
        assert outcome.result == CheckResult.SAFE


class TestAgainstBMC:
    @pytest.mark.parametrize(
        "case_factory",
        [
            lambda: modular_counter(3, modulus=7, bad_value=5),
            lambda: johnson_counter(4, safe=False),
            lambda: combination_lock([1, 0, 2]),
            lambda: counter_overflow(3, safe=False),
        ],
        ids=lambda f: f().name,
    )
    def test_unsafe_depth_not_shorter_than_bmc(self, case_factory):
        """BMC finds shortest counterexamples; IC3's cannot be shorter."""
        case = case_factory()
        bmc_outcome = BMC(case.aig).check(max_depth=40)
        ic3_outcome = _check(case, PRED)
        assert bmc_outcome.result == CheckResult.UNSAFE
        assert ic3_outcome.result == CheckResult.UNSAFE
        assert ic3_outcome.trace.depth >= bmc_outcome.trace.depth
