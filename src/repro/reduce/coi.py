"""Cone-of-influence reduction pass.

Industrial AIGER models routinely contain logic that cannot affect the
property being checked; restricting the circuit to the *cone of
influence* — the inputs, latches and gates the bad signal transitively
depends on, where latch dependencies follow the next-state functions —
is sound and complete (the reduced circuit is unsafe iff the original
is) and can shrink the IC3 state space dramatically.  Invariant
constraints are always kept because they restrict every behaviour.
"""

from __future__ import annotations

from repro.aiger.aig import AIG
from repro.reduce.base import (
    FREE,
    KEPT,
    FaninCone,
    LatchFate,
    PassResult,
    ReductionPass,
    fanin_cone,
    make_info,
    no_properties_message,
    rebuild_aig,
    selected_bads,
)


def _property_cone(aig: AIG, property_index: int = 0) -> FaninCone:
    """The property's cone of influence, from one walk of its fan-in.

    The cone is closed under combinational fan-in and under latch
    next-state functions; invariant constraints are always included because
    they restrict every behaviour of the circuit.

    Its gate positions are exactly the gates a rebuild that keeps the
    cone's latches must materialize, so :class:`ConeOfInfluencePass`
    hands the walk on to :func:`~repro.reduce.base.rebuild_aig`.
    """
    aig.validate()
    bads = selected_bads(aig)
    if not bads:
        raise ValueError(no_properties_message(aig))
    if not 0 <= property_index < len(bads):
        raise ValueError(f"property index {property_index} out of range")
    roots = [bads[property_index]] + list(aig.constraints)
    return fanin_cone(aig, roots, through_latches=True)


_OUTSIDE_CONE = LatchFate(kind=FREE)
"""The fate of every latch outside the cone (fates are frozen, so one serves all)."""


class ConeOfInfluencePass(ReductionPass):
    """Keep only the inputs, latches and gates in the property's cone.

    The output model declares exactly one bad literal (the selected
    property, at index 0); everything outside its cone is dropped and
    recorded as *free* so trace lift-back can pick arbitrary values.
    """

    name = "coi"

    def run(self, aig: AIG, property_index: int = 0) -> PassResult:
        cone = _property_cone(aig, property_index)
        keep_inputs = {
            index for index, lit in enumerate(aig.inputs) if (lit >> 1) in cone.variables
        }
        rebuilt = rebuild_aig(
            aig,
            keep_inputs=keep_inputs,
            keep_latches=set(cone.latches),
            property_index=property_index,
            only_property=True,
            cone=cone,
        )
        fates = [_OUTSIDE_CONE] * aig.num_latches
        for index in cone.latches:
            fates[index] = LatchFate(kind=KEPT, new_index=rebuilt.latch_map[index])
        info = make_info(
            self.name,
            aig,
            rebuilt.aig,
            removed_latches=aig.num_latches - len(cone.latches),
            removed_inputs=aig.num_inputs - len(keep_inputs),
        )
        return PassResult(
            aig=rebuilt.aig,
            info=info,
            latch_fates=fates,
            input_map=rebuilt.input_map,
            property_index=rebuilt.property_index,
        )
