"""Tests for the k-induction engine."""


from repro.benchgen import (
    combination_lock,
    modular_counter,
    parity_counter,
    pipeline_tag,
    shadowed_ring,
    token_ring,
)
from repro.core import KInduction, CheckResult
from repro.core.invariant import check_counterexample
from repro.engines import create_engine


class TestSafeProofs:
    def test_one_inductive_property(self):
        # The parity invariant is inductive at k=1.
        outcome = KInduction(parity_counter(4).aig).check(max_k=3)
        assert outcome.result == CheckResult.SAFE
        assert outcome.frames == 1

    def test_token_ring_needs_small_k(self):
        outcome = KInduction(token_ring(4).aig).check(max_k=6)
        assert outcome.result == CheckResult.SAFE

    def test_pipeline_tag_safe(self):
        outcome = KInduction(pipeline_tag(4).aig).check(max_k=6)
        assert outcome.result == CheckResult.SAFE


class TestUnsafeAndUnknown:
    def test_counterexample_found_in_base_case(self):
        case = modular_counter(3, modulus=8, bad_value=3)
        outcome = KInduction(case.aig).check(max_k=10)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace.depth == outcome.frames == 3
        assert check_counterexample(case.aig, outcome.trace)

    def test_lock_found(self):
        case = combination_lock([1, 2])
        outcome = KInduction(case.aig).check(max_k=10)
        assert outcome.result == CheckResult.UNSAFE
        assert check_counterexample(case.aig, outcome.trace)

    def test_standalone_engine_lifts_trace_to_original_model(self):
        # The engine reduces the model first; the base-case trace must
        # survive the lift back through the reduction passes.
        case = shadowed_ring(3, noise=4, safe=False)
        outcome = create_engine("kind", case.aig).check(time_limit=60)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace is not None
        assert check_counterexample(case.aig, outcome.trace)

    def test_unknown_when_not_k_inductive_within_bound(self):
        # The counter range property usually needs k larger than 1-2.
        case = modular_counter(4, modulus=14, bad_value=15)
        outcome = KInduction(case.aig).check(max_k=1)
        assert outcome.result in (CheckResult.UNKNOWN, CheckResult.SAFE)

    def test_time_limit(self):
        case = modular_counter(4, modulus=14, bad_value=15)
        outcome = KInduction(case.aig).check(max_k=50, time_limit=0.0)
        assert outcome.result == CheckResult.UNKNOWN
        assert "time limit" in outcome.reason

    def test_engine_label(self):
        outcome = KInduction(parity_counter(3).aig).check(max_k=2)
        assert outcome.engine == "k-induction"
