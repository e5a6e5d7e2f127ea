"""Constant-latch sweeping via ternary (three-valued) simulation.

The pass computes the least fixpoint of the ternary reachability
iteration ``S0 = init``, ``S_{k+1} = S_k ⊔ eval(S_k)`` with every input
at X (unknown) and joins toward X.  Ternary evaluation is sound: if a
signal evaluates to 0/1 under a partial state, it has that value for
*every* completion.  A latch still binary at the fixpoint therefore
holds that constant in every reachable state of the real circuit, so it
can be replaced by the constant and swept — which in turn lets fan-out
logic fold away on the rebuild.

The constancy facts are *inductive* (mutually, over all swept latches):
given every swept latch at its constant, each next-state function
ternary-evaluates back to the constant.  Certificate lift-back relies on
this by emitting one unit clause per swept latch (see
:mod:`repro.reduce.recon`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.aiger.aig import AIG, FALSE_LIT, TRUE_LIT
from repro.reduce.base import (
    CONST,
    KEPT,
    LatchFate,
    PassResult,
    ReductionPass,
    make_info,
    rebuild_aig,
)

# Ternary values as 2-bit sets of the Boolean values a signal may take.
_MAY_BE_0 = 1
_MAY_BE_1 = 2
_X = _MAY_BE_0 | _MAY_BE_1
_NEGATED = (0, _MAY_BE_1, _MAY_BE_0, _X)
"""Value set -> value set of the negated signal."""


def ternary_constants(aig: AIG) -> Dict[int, bool]:
    """Latch literal -> proven constant value, from the ternary fixpoint.

    Latches without a defined reset start at X and are never reported.
    """
    state = [
        _X if latch.init is None else (_MAY_BE_1 if latch.init else _MAY_BE_0)
        for latch in aig.latches
    ]
    gates = aig.gate_columns()
    while True:
        values = _evaluate_ternary(aig, state, gates)
        changed = False
        for index, latch in enumerate(aig.latches):
            current = state[index]
            if current != _X and values[latch.next] != current:
                state[index] = _X  # join toward X (monotone widening)
                changed = True
        if not changed:
            break
    return {
        latch.lit: value == _MAY_BE_1
        for latch, value in zip(aig.latches, state)
        if value != _X
    }


def _evaluate_ternary(
    aig: AIG, latch_state: Sequence[int], gates: Tuple[List[int], List[int], List[int]]
) -> List[int]:
    """Three-valued evaluation of one step into a list indexed by literal.

    Inputs are X; ``latch_state`` follows latch order.  Both polarities of
    every variable are stored.
    """
    values = [_MAY_BE_0, _MAY_BE_1] * (aig.max_var + 1)
    for lit in aig.inputs:
        values[lit] = values[lit ^ 1] = _X
    for latch, value in zip(aig.latches, latch_state):
        values[latch.lit] = value
        values[latch.lit ^ 1] = _NEGATED[value]
    for lhs, rhs0, rhs1 in zip(*gates):
        a, b = values[rhs0], values[rhs1]
        # 0 if either may be 0; 1 if both may be 1.
        result = ((a | b) & _MAY_BE_0) | (a & b & _MAY_BE_1)
        values[lhs] = result
        values[lhs ^ 1] = _NEGATED[result]
    return values


class TernaryConstantPass(ReductionPass):
    """Sweep latches that ternary simulation proves stuck at a constant."""

    name = "ternary"

    def run(self, aig: AIG, property_index: int = 0) -> PassResult:
        constants = ternary_constants(aig)
        replace = {
            lit: (TRUE_LIT if value else FALSE_LIT)
            for lit, value in constants.items()
        }
        rebuilt = rebuild_aig(aig, replace=replace, property_index=property_index)
        fates = []
        for index, latch in enumerate(aig.latches):
            if latch.lit in constants:
                fates.append(LatchFate(kind=CONST, value=constants[latch.lit]))
            else:
                fates.append(LatchFate(kind=KEPT, new_index=rebuilt.latch_map[index]))
        info = make_info(
            self.name,
            aig,
            rebuilt.aig,
            constant_latches=len(constants),
        )
        return PassResult(
            aig=rebuilt.aig,
            info=info,
            latch_fates=fates,
            input_map=rebuilt.input_map,
            property_index=rebuilt.property_index,
        )
