"""Tests for the bounded model checker."""

import pytest

from repro.benchgen import (
    combination_lock,
    counter_overflow,
    johnson_counter,
    lfsr,
    modular_counter,
    token_ring,
)
from repro.core import BMC, CheckResult, check_counterexample


class TestCounterexampleSearch:
    @pytest.mark.parametrize(
        "case_factory",
        [
            lambda: modular_counter(3, modulus=8, bad_value=5),
            lambda: combination_lock([1, 2, 3]),
            lambda: johnson_counter(5, safe=False),
            lambda: lfsr(4, safe=False, unsafe_depth=6),
            lambda: counter_overflow(3, safe=False),
            lambda: token_ring(4, safe=False),
        ],
        ids=lambda f: f().name,
    )
    def test_finds_counterexample_at_expected_depth(self, case_factory):
        case = case_factory()
        outcome = BMC(case.aig).check(max_depth=case.expected_depth + 3)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace is not None
        # BMC counterexamples are shortest, so the depth must match exactly.
        assert outcome.trace.depth == case.expected_depth
        assert check_counterexample(case.aig, outcome.trace)

    def test_unknown_when_bound_too_small(self):
        case = modular_counter(3, modulus=8, bad_value=5)
        outcome = BMC(case.aig).check(max_depth=4)
        assert outcome.result == CheckResult.UNKNOWN
        assert "depth" in outcome.reason

    def test_unknown_for_safe_design(self):
        outcome = BMC(token_ring(4).aig).check(max_depth=8)
        assert outcome.result == CheckResult.UNKNOWN

    def test_bad_initial_state_found_at_depth_zero(self):
        case = modular_counter(3, modulus=8, bad_value=0)
        outcome = BMC(case.aig).check(max_depth=3)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace.depth == 0

    def test_shortest_depth_is_exact(self):
        case = modular_counter(3, modulus=8, bad_value=5)
        assert BMC(case.aig).check(max_depth=4).result == CheckResult.UNKNOWN
        outcome = BMC(case.aig).check(max_depth=5)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace.depth == 5

    def test_time_limit_respected(self):
        case = combination_lock([1, 2, 3, 1, 2, 3, 1, 2], symbol_bits=2)
        outcome = BMC(case.aig).check(max_depth=200, time_limit=0.0)
        assert outcome.result == CheckResult.UNKNOWN
        assert "time limit" in outcome.reason

    def test_runtime_and_stats_reported(self):
        case = modular_counter(3, modulus=8, bad_value=2)
        outcome = BMC(case.aig).check(max_depth=5)
        assert outcome.runtime >= 0
        assert outcome.stats.sat_calls >= 3
        assert outcome.engine == "bmc"
