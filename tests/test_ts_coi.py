"""Tests for the cone-of-influence pass (:mod:`repro.reduce.coi`) on its own."""

import pytest

from repro.aiger import AIG
from repro.benchgen import (
    fifo_controller,
    johnson_counter,
    modular_counter,
    token_ring,
)
from repro.core import IC3, CheckResult, IC3Options, check_certificate
from repro.reduce.coi import ConeOfInfluencePass, coi_variables


def _reduce(aig):
    """The cone of property 0 alone: ``(reduced AIG, ReductionInfo)``."""
    result = ConeOfInfluencePass().run(aig, property_index=0)
    return result.aig, result.info


def _with_dead_logic(case, extra_latches=4):
    """Append latches and gates that cannot influence the property."""
    aig = case.aig
    free = aig.add_input("noise")
    previous = free
    for index in range(extra_latches):
        latch = aig.add_latch(init=0, name=f"dead{index}")
        aig.set_latch_next(latch, aig.xor_gate(previous, latch))
        previous = latch
    aig.add_output(previous)  # observable, but not the checked property
    return case


class TestConeComputation:
    def test_cone_of_isolated_property(self):
        aig = AIG()
        relevant = aig.add_latch(init=0)
        aig.set_latch_next(relevant, aig.negate(relevant))
        irrelevant = aig.add_latch(init=0)
        aig.set_latch_next(irrelevant, irrelevant)
        aig.add_bad(relevant)
        cone = coi_variables(aig)
        assert (relevant >> 1) in cone
        assert (irrelevant >> 1) not in cone

    def test_cone_follows_latch_next_functions(self):
        aig = AIG()
        a = aig.add_latch(init=0)
        b = aig.add_latch(init=0)
        aig.set_latch_next(a, b)      # a depends on b
        aig.set_latch_next(b, b)
        aig.add_bad(a)
        cone = coi_variables(aig)
        assert {a >> 1, b >> 1} <= cone

    def test_constraints_always_in_cone(self):
        aig = AIG()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, latch)
        other = aig.add_latch(init=0)
        aig.set_latch_next(other, other)
        aig.add_bad(latch)
        aig.add_constraint(aig.negate(other))
        cone = coi_variables(aig)
        assert (other >> 1) in cone

    def test_errors(self):
        aig = AIG()
        latch = aig.add_latch()
        aig.set_latch_next(latch, latch)
        with pytest.raises(ValueError):
            coi_variables(aig)
        aig.add_bad(latch)
        with pytest.raises(ValueError):
            coi_variables(aig, property_index=5)


class TestReduction:
    @pytest.mark.parametrize(
        "case_factory",
        [
            lambda: token_ring(4),
            lambda: modular_counter(3, modulus=6, bad_value=4),
            lambda: fifo_controller(3),
            lambda: johnson_counter(4, safe=False),
        ],
        ids=lambda f: f().name,
    )
    def test_dead_logic_removed_and_verdict_preserved(self, case_factory):
        case = _with_dead_logic(case_factory())
        reduced, info = _reduce(case.aig)

        assert info.reduced
        assert info.latches_before - info.latches_after >= 4
        assert reduced.num_latches < case.aig.num_latches

        original = IC3(case.aig, IC3Options().with_prediction()).check(time_limit=60)
        shrunk = IC3(reduced, IC3Options().with_prediction()).check(time_limit=60)
        assert original.result == shrunk.result == case.expected
        if shrunk.result == CheckResult.SAFE:
            assert check_certificate(reduced, shrunk.certificate)

    def test_reduction_is_identity_when_everything_matters(self):
        case = token_ring(5)
        reduced, info = _reduce(case.aig)
        assert not info.reduced
        assert reduced.num_latches == case.aig.num_latches
        assert reduced.num_inputs == case.aig.num_inputs

    def test_latch_resets_and_names_preserved(self):
        case = _with_dead_logic(fifo_controller(2))
        reduced, _ = _reduce(case.aig)
        kept_names = [latch.name for latch in reduced.latches]
        assert all(not (name or "").startswith("dead") for name in kept_names)
        assert all(latch.init == 0 for latch in reduced.latches)

    def test_reduced_circuit_behaviour_matches_on_property(self):
        case = _with_dead_logic(modular_counter(3, modulus=6, bad_value=3))
        reduced, _ = _reduce(case.aig)
        # Simulate both circuits with arbitrary inputs: the bad signal must agree.
        steps = 8
        inputs_full = [
            {lit: bool((step + i) % 2) for i, lit in enumerate(case.aig.inputs)}
            for step in range(steps)
        ]
        inputs_reduced = [
            {lit: bool((step + i) % 2) for i, lit in enumerate(reduced.inputs)}
            for step in range(steps)
        ]
        full_trace = case.aig.simulate(inputs_full)
        reduced_trace = reduced.simulate(inputs_reduced)
        assert [r["bads"][0] for r in full_trace] == [
            r["bads"][0] for r in reduced_trace
        ]

    def test_info_counters_consistent(self):
        case = _with_dead_logic(token_ring(3))
        reduced, info = _reduce(case.aig)
        assert (info.latches_before, info.latches_after) == (
            case.aig.num_latches,
            reduced.num_latches,
        )
        assert (info.inputs_before, info.inputs_after) == (
            case.aig.num_inputs,
            reduced.num_inputs,
        )
        assert (info.ands_before, info.ands_after) == (case.aig.num_ands, reduced.num_ands)
