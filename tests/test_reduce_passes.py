"""Unit tests for the individual reduction passes."""

from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.aiger import AIG, FALSE_LIT, TRUE_LIT, to_aag_string
from repro.benchgen import fifo_controller, monitored_counter, token_ring
from repro.reduce import (
    ConeOfInfluencePass,
    EquivalentLatchPass,
    TernaryConstantPass,
    equivalent_latch_classes,
    ternary_constants,
)
from repro.reduce.base import CONST, FREE, KEPT, MERGED, rebuild_aig, selected_bads

from tests.test_flat_evaluators import random_aigs
from tests.test_reduce_cone import noisy_aigs


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


# ---------------------------------------------------------------------------
# Differential references: the rebuild and the latch signatures as they were
# written before the hash-consing loop took over, one add_and call per gate.
# ---------------------------------------------------------------------------


def reference_rebuild(source, keep_inputs, keep_latches, replace, property_index,
                      only_property):
    """Rebuild through ``AIG.add_and``, with a set-based walk of the cone."""
    bads = selected_bads(source)
    emitted_bads = [bads[property_index]] if only_property else bads
    new = AIG(comment=source.comment)
    new_lit_of = {FALSE_LIT: FALSE_LIT, TRUE_LIT: TRUE_LIT}
    input_map = [None] * source.num_inputs
    for index, lit in enumerate(source.inputs):
        if keep_inputs is None or index in keep_inputs:
            input_map[index] = new.num_inputs
            new_lit_of[lit] = new.add_input(source.input_name(lit))
    latch_map = [None] * source.num_latches
    kept_latches = []
    for index, latch in enumerate(source.latches):
        if (keep_latches is None or index in keep_latches) and latch.lit not in replace:
            latch_map[index] = new.num_latches
            new_lit_of[latch.lit] = new.add_latch(init=latch.init, name=latch.name)
            kept_latches.append(latch)

    gate_of = {gate.lhs >> 1: gate for gate in source.ands}
    reached = set()
    pending = [lit >> 1 for lit in [latch.next for latch in kept_latches]
               + source.constraints + emitted_bads + list(replace.values())]
    while pending:
        var = pending.pop()
        if var not in reached:
            reached.add(var)
            if var in gate_of:
                pending += [gate_of[var].rhs0 >> 1, gate_of[var].rhs1 >> 1]

    def map_lit(lit):
        base = lit & ~1
        if base in new_lit_of:
            return new_lit_of[base] ^ (lit & 1)
        if base in replace:
            return map_lit(replace[base] ^ (lit & 1))
        return FALSE_LIT ^ (lit & 1)

    for gate in source.ands:
        if gate.lhs >> 1 in reached:
            new_lit_of[gate.lhs] = new.add_and(map_lit(gate.rhs0), map_lit(gate.rhs1))
    for latch in kept_latches:
        new.set_latch_next(new_lit_of[latch.lit], map_lit(latch.next))
    for constraint in source.constraints:
        new.add_constraint(map_lit(constraint))
    for bad in emitted_bads:
        new.add_bad(map_lit(bad))
    return new, input_map, latch_map


def reference_latch_classes(aig):
    """Partition refinement with signatures from a scratch ``AIG`` per round."""
    latches = aig.latches
    class_of = [0 if latch.init is not None else -1 for latch in latches]
    while True:
        signatures = _reference_signatures(aig, class_of)
        next_class_of = list(class_of)
        key_to_class = {}
        for index in range(len(latches)):
            if class_of[index] >= 0:
                key = (class_of[index], signatures[index])
                next_class_of[index] = key_to_class.setdefault(key, len(key_to_class))
        if next_class_of == class_of:
            break
        class_of = next_class_of
    members: Dict[int, list] = {}
    for index, cls in enumerate(class_of):
        if cls >= 0:
            members.setdefault(cls, []).append(index)
    return [sorted(group) for cls, group in sorted(members.items()) if len(group) > 1]


def _reference_signatures(aig, class_of):
    scratch = AIG()
    placeholder = {}

    def class_var(key):
        if key not in placeholder:
            placeholder[key] = scratch.add_input()
        return placeholder[key]

    mapping = {FALSE_LIT: FALSE_LIT, TRUE_LIT: TRUE_LIT}
    for lit in aig.inputs:
        mapping[lit] = scratch.add_input()
    for index, latch in enumerate(aig.latches):
        cls = class_of[index]
        if cls < 0:
            mapping[latch.lit] = class_var(~index)
        else:
            mapping[latch.lit] = class_var(cls) ^ int(latch.init)

    def map_lit(lit):
        return mapping[lit & ~1] ^ (lit & 1)

    for gate in aig.ands:
        mapping[gate.lhs] = scratch.add_and(map_lit(gate.rhs0), map_lit(gate.rhs1))
    return [map_lit(latch.next) ^ (int(latch.init) if latch.init is not None else 0)
            for latch in aig.latches]


def _subsets(draw, count):
    """None (keep all) or a set of indices below ``count``."""
    if draw(st.booleans()):
        return None
    return draw(st.sets(st.sampled_from(range(count)))) if count else set()


@st.composite
def rebuild_requests(draw):
    """A noisy model with random keep sets, a random ``replace`` map (each
    replaced latch goes to a constant or to a kept, unreplaced latch,
    either phase) and a random property selection."""
    aig = draw(noisy_aigs())
    keep_inputs = _subsets(draw, aig.num_inputs)
    keep_latches = _subsets(draw, aig.num_latches)
    replaced = draw(st.sets(st.sampled_from(range(aig.num_latches))))
    kept = range(aig.num_latches) if keep_latches is None else keep_latches
    targets = [FALSE_LIT, TRUE_LIT] + [
        aig.latches[index].lit ^ phase
        for index in kept if index not in replaced for phase in (0, 1)
    ]
    replace = {aig.latches[index].lit: draw(st.sampled_from(targets))
               for index in sorted(replaced)}
    property_index = draw(st.integers(0, len(selected_bads(aig)) - 1))
    return aig, keep_inputs, keep_latches, replace, property_index, draw(st.booleans())


@st.composite
def lockstep_aigs(draw):
    """A random model plus copies of some latches: a copy starts from the
    same reset and loads the same next-state literal, or starts from the
    opposite reset and loads its negation (equivalent or anti-equivalent)."""
    aig = draw(random_aigs())
    originals = list(aig.latches)
    for latch in originals:
        if latch.init is not None and draw(st.booleans()):
            flip = draw(st.integers(0, 1))
            copy = aig.add_latch(init=latch.init ^ flip)
            aig.set_latch_next(copy, latch.next ^ flip)
    return aig


class TestHashConsDifferential:
    @settings(max_examples=200, deadline=None)
    @given(rebuild_requests())
    def test_rebuild_equals_add_and_reference(self, request):
        aig, keep_inputs, keep_latches, replace, property_index, only_property = request
        rebuilt = rebuild_aig(aig, keep_inputs=keep_inputs, keep_latches=keep_latches,
                              replace=replace, property_index=property_index,
                              only_property=only_property)
        reference, input_map, latch_map = reference_rebuild(
            aig, keep_inputs, keep_latches, replace, property_index, only_property)
        assert to_aag_string(rebuilt.aig) == to_aag_string(reference)
        assert (rebuilt.input_map, rebuilt.latch_map) == (input_map, latch_map)
        # The rebuilt model's hash table holds every gate.
        new = rebuilt.aig
        for gate in list(new.ands):
            assert new.add_and(gate.rhs0, gate.rhs1) == gate.lhs
            assert new.add_and(gate.rhs1, gate.rhs0) == gate.lhs
        assert new.num_ands == reference.num_ands

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(lockstep_aigs(), noisy_aigs()))
    def test_latch_classes_equal_scratch_aig_reference(self, aig):
        assert equivalent_latch_classes(aig) == reference_latch_classes(aig)

    def test_latch_classes_on_a_wide_model(self):
        aig = monitored_counter(3, noise=40, copies=4).aig
        classes = equivalent_latch_classes(aig)
        assert classes and classes == reference_latch_classes(aig)
