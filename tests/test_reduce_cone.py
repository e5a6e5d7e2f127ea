"""The cone of influence pass hands its one fan-in walk to the rebuild.

The walk that finds the property's cone also lists the cone's gates, and
the rebuild materializes exactly those, in list order.  These tests hold
the pass to a reference closure written here, check that the reduced
model keeps the original's verdict, and check that the reconstruction
map names every reduced input and latch by its original.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.aiger import to_aag_string
from repro.benchgen import monitored_counter
from repro.reduce import ConeOfInfluencePass, reduce_aig, rebuild_aig
from repro.reduce.base import FREE, KEPT, FaninCone

from tests.test_flat_evaluators import random_aigs
from tests.test_property_engine import explicit_reachability


def reference_cone(aig):
    """Variables the first bad literal and the constraints depend on.

    Grown one layer at a time until nothing new appears: a gate adds its
    operands, a latch its next-state literal.
    """
    depends = {gate.lhs >> 1: {gate.rhs0 >> 1, gate.rhs1 >> 1} for gate in aig.ands}
    for latch in aig.latches:
        depends.setdefault(latch.lit >> 1, {latch.next >> 1})
    cone = {lit >> 1 for lit in [aig.bads[0], *aig.constraints]} - {0}
    while True:
        grown = cone.union(*(depends.get(var, ()) for var in cone)) - {0}
        if grown == cone:
            return cone
        cone = grown


@st.composite
def noisy_aigs(draw):
    """A random AIG with a bad literal, plus latches and gates outside its cone.

    Each noise latch loads the AND of itself and a literal of the model,
    so the noise reads the model but nothing the property reads depends
    on the noise.
    """
    aig = draw(random_aigs())
    assume(aig.bads and aig.num_inputs <= 3 and aig.num_latches <= 5)
    signals = [0, *aig.inputs, *(latch.lit for latch in aig.latches),
               *(gate.lhs for gate in aig.ands)]
    for _ in range(draw(st.integers(1, 3))):
        noise = aig.add_latch(init=draw(st.sampled_from([0, 1, None])))
        other = draw(st.sampled_from(signals)) ^ draw(st.integers(0, 1))
        aig.set_latch_next(noise, aig.add_and(noise ^ 1, other))
        signals.append(noise)
    aig.validate()
    return aig


class TestConeHandoff:
    @settings(max_examples=150, deadline=None)
    @given(noisy_aigs())
    def test_pass_keeps_the_reference_cone(self, aig):
        cone = reference_cone(aig)
        result = ConeOfInfluencePass().run(aig)

        kept_inputs = [lit for index, lit in enumerate(aig.inputs)
                       if result.input_map[index] is not None]
        assert kept_inputs == [lit for lit in aig.inputs if lit >> 1 in cone]
        kept_latches = [index for index, fate in enumerate(result.latch_fates)
                        if fate.kind == KEPT]
        assert kept_latches == [index for index, latch in enumerate(aig.latches)
                                if latch.lit >> 1 in cone]
        assert all(fate.kind in (KEPT, FREE) for fate in result.latch_fates)

        # The same rebuild, fed the reference closure's gates, gives the
        # same model: the pass materialized no gate outside the closure.
        gates = [index for index, gate in enumerate(aig.ands) if gate.lhs >> 1 in cone]
        reference = rebuild_aig(
            aig,
            keep_inputs={index for index, lit in enumerate(aig.inputs) if lit >> 1 in cone},
            keep_latches=set(kept_latches),
            only_property=True,
            cone=FaninCone(variables=cone, gates=gates, latches=kept_latches),
        )
        assert to_aag_string(result.aig) == to_aag_string(reference.aig)
        assert result.aig.num_ands <= len(gates)

    @settings(max_examples=150, deadline=None)
    @given(noisy_aigs())
    def test_pass_rebuild_equals_rebuild_walk(self, aig):
        # Without the handoff the rebuild walks from what it emits.
        result = ConeOfInfluencePass().run(aig)
        walked = rebuild_aig(
            aig,
            keep_inputs={index for index, new in enumerate(result.input_map)
                         if new is not None},
            keep_latches={index for index, fate in enumerate(result.latch_fates)
                          if fate.kind == KEPT},
            only_property=True,
        )
        assert to_aag_string(result.aig) == to_aag_string(walked.aig)

    @settings(max_examples=100, deadline=None)
    @given(noisy_aigs())
    def test_reduced_model_keeps_the_verdict(self, aig):
        result = ConeOfInfluencePass().run(aig)
        assert explicit_reachability(result.aig) == explicit_reachability(aig)


def _named_wide_counter(reverse_inputs):
    """The unreduced soc-wide counter, every input and latch named uniquely.

    With ``reverse_inputs`` the input list is reversed, so the input the
    cone keeps is not the first one.
    """
    aig = monitored_counter(3, noise=1000, copies=16, safe=False).aig
    if reverse_inputs:
        aig.inputs.reverse()
    for index, lit in enumerate(aig.inputs):
        aig._input_names[lit] = f"input{index}"
    for index, latch in enumerate(aig.latches):
        latch.name = f"latch{index}"
    return aig


@pytest.mark.parametrize("reverse_inputs", [False, True], ids=["inputs", "reversed"])
class TestOriginMaps:
    def _check_names(self, passes, reverse_inputs):
        aig = _named_wide_counter(reverse_inputs)
        result = reduce_aig(aig, passes=passes)
        reduced, recon = result.aig, result.recon
        assert len(recon.input_origin) == reduced.num_inputs >= 1
        assert len(recon.latch_origin) == reduced.num_latches >= 1
        for index, lit in enumerate(reduced.inputs):
            original = aig.inputs[recon.input_origin[index]]
            assert aig.input_name(original) == reduced.input_name(lit)
        for index, latch in enumerate(reduced.latches):
            assert aig.latches[recon.latch_origin[index]].name == latch.name
        return result

    def test_default_pipeline(self, reverse_inputs):
        result = self._check_names(None, reverse_inputs)
        first = result.infos[0]
        assert (first.pass_name, first.inputs_before, first.inputs_after) == ("coi", 2, 1)

    def test_coi_then_merge(self, reverse_inputs):
        result = self._check_names(["coi", "merge"], reverse_inputs)
        assert [info.pass_name for info in result.infos] == ["coi", "merge"]
        assert result.aig.num_latches < result.infos[1].latches_before
