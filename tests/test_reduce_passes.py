"""Unit tests for the individual reduction passes."""

import pytest

from repro.aiger import AIG, FALSE_LIT, TRUE_LIT
from repro.benchgen import fifo_controller, monitored_counter, token_ring
from repro.reduce import (
    ConeOfInfluencePass,
    EquivalentLatchPass,
    TernaryConstantPass,
    equivalent_latch_classes,
    ternary_constants,
)
from repro.reduce.base import CONST, FREE, KEPT, MERGED, rebuild_aig


def _toggle(aig, init=0, name=None):
    latch = aig.add_latch(init=init, name=name)
    aig.set_latch_next(latch, aig.negate(latch))
    return latch


class TestRebuild:
    def test_identity_rebuild_preserves_shape(self):
        aig = token_ring(4).aig
        rebuilt = rebuild_aig(aig)
        assert rebuilt.aig.num_inputs == aig.num_inputs
        assert rebuilt.aig.num_latches == aig.num_latches
        assert rebuilt.aig.num_ands == aig.num_ands
        assert rebuilt.input_map == list(range(aig.num_inputs))
        assert rebuilt.latch_map == list(range(aig.num_latches))

    def test_dead_gates_dropped(self):
        aig = AIG()
        a = aig.add_input()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, latch)
        aig.add_and(a, latch)  # feeds nothing
        aig.add_bad(latch)
        rebuilt = rebuild_aig(aig)
        assert rebuilt.aig.num_ands == 0

    def test_constant_replacement_folds_logic(self):
        aig = AIG()
        a = aig.add_input()
        latch = aig.add_latch(init=1)
        aig.set_latch_next(latch, latch)
        aig.add_bad(aig.add_and(a, latch))
        rebuilt = rebuild_aig(aig, replace={latch: TRUE_LIT})
        # bad = a & TRUE folds to just a; the latch disappears.
        assert rebuilt.aig.num_latches == 0
        assert rebuilt.aig.num_ands == 0
        assert rebuilt.latch_map == [None]


    def test_never_grows_and_keeps_state(self):
        aig = fifo_controller(3).aig
        rebuilt = rebuild_aig(aig)
        assert rebuilt.aig.num_ands <= aig.num_ands
        assert rebuilt.aig.num_latches == aig.num_latches

    def test_folds_after_manual_duplication(self):
        aig = AIG()
        a = aig.add_input()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, a)
        # Build the same gate twice through different literal spellings.
        gate = aig.add_and(a, latch)
        aig.add_bad(gate)
        other = aig.add_and(latch, a)
        aig.add_bad(other)
        rebuilt = rebuild_aig(aig)
        assert rebuilt.aig.num_ands == 1


class TestConeOfInfluencePass:
    def test_drops_out_of_cone_state(self):
        aig = AIG()
        relevant = _toggle(aig, name="relevant")
        _toggle(aig, name="dead")
        aig.add_bad(relevant)
        result = ConeOfInfluencePass().run(aig)
        assert result.aig.num_latches == 1
        assert result.latch_fates[0].kind == KEPT
        assert result.latch_fates[1].kind == FREE
        assert result.property_index == 0

    def test_selects_one_property(self):
        aig = AIG()
        first = _toggle(aig)
        second = _toggle(aig)
        aig.add_bad(first)
        aig.add_bad(second)
        result = ConeOfInfluencePass().run(aig, property_index=1)
        assert len(result.aig.bads) == 1
        assert result.aig.num_latches == 1
        assert result.property_index == 0


class TestTernaryConstantPass:
    def test_finds_stuck_latches(self):
        aig = AIG()
        enable = aig.add_input()
        stuck = aig.add_latch(init=0, name="stuck")
        aig.set_latch_next(stuck, aig.add_and(stuck, enable))
        free_latch = aig.add_latch(init=0, name="free")
        aig.set_latch_next(free_latch, enable)
        aig.add_bad(aig.add_and(stuck, free_latch))
        constants = ternary_constants(aig)
        assert constants == {stuck: False}

    def test_cascaded_constants(self):
        aig = AIG()
        stuck = aig.add_latch(init=1)
        aig.set_latch_next(stuck, stuck)
        follower = aig.add_latch(init=1)
        aig.set_latch_next(follower, stuck)
        aig.add_bad(aig.negate(follower))
        constants = ternary_constants(aig)
        assert constants == {stuck: True, follower: True}

    def test_uninitialized_latches_never_constant(self):
        aig = AIG()
        latch = aig.add_latch(init=None)
        aig.set_latch_next(latch, latch)
        aig.add_bad(latch)
        assert ternary_constants(aig) == {}

    def test_pass_sweeps_and_folds(self):
        aig = AIG()
        enable = aig.add_input()
        stuck = aig.add_latch(init=0)
        aig.set_latch_next(stuck, aig.add_and(stuck, enable))
        live = aig.add_latch(init=0)
        aig.set_latch_next(live, aig.negate(live))
        # bad = live & !stuck simplifies to live once stuck == 0 is known.
        aig.add_bad(aig.add_and(live, aig.negate(stuck)))
        result = TernaryConstantPass().run(aig)
        assert result.aig.num_latches == 1
        assert result.latch_fates[0] .kind == CONST
        assert result.latch_fates[0].value is False
        assert result.latch_fates[1].kind == KEPT
        assert result.info.details["constant_latches"] == 1

    @staticmethod
    def _shift_chain(length):
        """Latches reset to 0, each loading ``previous & enable``.

        The X of the free input reaches one more latch per fixpoint round,
        so the fixpoint takes ``length`` rounds over ``length`` gates.
        """
        aig = AIG()
        data, enable = aig.add_input(), aig.add_input()
        previous = data
        for _ in range(length):
            latch = aig.add_latch(init=0)
            aig.set_latch_next(latch, aig.add_and(previous, enable))
            previous = latch
        aig.add_bad(previous)
        return aig

    def test_fixpoint_work_grows_linearly(self):
        from repro.reduce.ternary import _ternary_fixpoint

        work = {}
        for length in (100, 200):
            chain = self._shift_chain(length)
            work[length] = _ternary_fixpoint(chain)[1]
            assert ternary_constants(chain) == {}
        # Re-evaluating every gate each round would give 4 (quadratic).
        assert work[200] <= 3 * work[100]


class TestEquivalentLatchPass:
    def test_merges_lockstep_copies(self):
        aig = AIG()
        tick = aig.add_input()
        first = aig.add_latch(init=0)
        second = aig.add_latch(init=0)
        aig.set_latch_next(first, aig.xor_gate(first, tick))
        aig.set_latch_next(second, aig.xor_gate(second, tick))
        aig.add_bad(aig.xor_gate(first, second))
        classes = equivalent_latch_classes(aig)
        assert classes == [[0, 1]]
        result = EquivalentLatchPass().run(aig)
        assert result.aig.num_latches == 1
        assert result.latch_fates[1].kind == MERGED
        assert result.latch_fates[1].rep_index == 0
        assert result.latch_fates[1].negated is False
        # bad = first ^ first folds to constant false.
        assert result.aig.bads == [FALSE_LIT]

    def test_merges_anti_equivalent_latches(self):
        aig = AIG()
        tick = aig.add_input()
        low = aig.add_latch(init=0)
        high = aig.add_latch(init=1)
        aig.set_latch_next(low, aig.xor_gate(low, tick))
        aig.set_latch_next(high, aig.negate(aig.xor_gate(low, tick)))
        aig.add_bad(aig.xnor_gate(low, high))
        classes = equivalent_latch_classes(aig)
        assert classes == [[0, 1]]
        result = EquivalentLatchPass().run(aig)
        assert result.latch_fates[1].kind == MERGED
        assert result.latch_fates[1].negated is True

    def test_does_not_merge_diverging_latches(self):
        aig = AIG()
        a = aig.add_input()
        b = aig.add_input()
        first = aig.add_latch(init=0)
        second = aig.add_latch(init=0)
        aig.set_latch_next(first, a)
        aig.set_latch_next(second, b)
        aig.add_bad(aig.add_and(first, second))
        assert equivalent_latch_classes(aig) == []

    def test_does_not_merge_uninitialized_latches(self):
        aig = AIG()
        first = aig.add_latch(init=None)
        second = aig.add_latch(init=None)
        aig.set_latch_next(first, first)
        aig.set_latch_next(second, second)
        aig.add_bad(aig.add_and(first, second))
        assert equivalent_latch_classes(aig) == []

    def test_simulation_agrees_after_merge(self):
        case = monitored_counter(3, noise=0)
        result = EquivalentLatchPass().run(case.aig)
        assert result.info.details["merged_latches"] >= 3
        steps = 10
        stimulus_full = [
            {lit: bool(step % 2 == 0) for lit in case.aig.inputs}
            for step in range(steps)
        ]
        stimulus_reduced = [
            {lit: bool(step % 2 == 0) for lit in result.aig.inputs}
            for step in range(steps)
        ]
        full = case.aig.simulate(stimulus_full)
        reduced = result.aig.simulate(stimulus_reduced)
        assert [r["bads"][0] for r in full] == [r["bads"][0] for r in reduced]


class TestPassErrors:
    def test_rebuild_requires_a_property(self):
        aig = AIG()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, latch)
        from repro.reduce import ReductionError

        with pytest.raises(ReductionError):
            rebuild_aig(aig)

    def test_coi_property_index_out_of_range(self):
        aig = AIG()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, latch)
        aig.add_bad(latch)
        with pytest.raises(ValueError):
            ConeOfInfluencePass().run(aig, property_index=3)
