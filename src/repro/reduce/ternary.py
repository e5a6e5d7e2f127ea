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

from itertools import chain
from typing import Dict, Iterable, List, Tuple

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
    state, _evaluations = _ternary_fixpoint(aig)
    return {
        latch.lit: value == _MAY_BE_1
        for latch, value in zip(aig.latches, state)
        if value != _X
    }


def _ternary_fixpoint(aig: AIG) -> Tuple[List[int], int]:
    """Latch value sets at the fixpoint, and the number of gate evaluations.

    The first round evaluates every gate.  A later round widens the
    latches whose next-state value left their own, then re-evaluates only
    the gates whose operands changed, in list order (a topological order,
    so a gate is read after its operands), and checks only the latches
    whose next-state value changed.  Each round therefore widens the same
    latches as a full re-evaluation would.
    """
    latches = aig.latches
    state = [
        _X if latch.init is None else (_MAY_BE_1 if latch.init else _MAY_BE_0)
        for latch in latches
    ]
    lhs_of, rhs0_of, rhs1_of = aig.gate_columns()
    values = [_MAY_BE_0, _MAY_BE_1] * (aig.max_var + 1)
    for lit in aig.inputs:
        values[lit] = values[lit ^ 1] = _X
    for latch, value in zip(latches, state):
        values[latch.lit] = value
        values[latch.lit ^ 1] = _NEGATED[value]
    for lhs, rhs0, rhs1 in zip(lhs_of, rhs0_of, rhs1_of):
        a, b = values[rhs0], values[rhs1]
        # 0 if either may be 0; 1 if both may be 1.
        result = ((a | b) & _MAY_BE_0) | (a & b & _MAY_BE_1)
        values[lhs] = result
        values[lhs ^ 1] = _NEGATED[result]
    evaluations = len(lhs_of)

    # Who reads each variable, as linked lists threaded through flat int
    # lists (no list per variable for the garbage collector to track):
    # operand edge ``2 * position + k`` is operand ``k`` of gate
    # ``position``.  Built when a latch first widens.
    first_reader: List[int] = []
    next_reader: List[int] = []
    first_latch: List[int] = []  # variable -> a latch whose next state it is
    next_latch: List[int] = []
    dirty = bytearray(len(lhs_of))  # gate position -> 1 while it awaits re-evaluation
    to_check: Iterable[int] = range(len(latches))
    while True:
        widened = [
            index
            for index in to_check
            if state[index] != _X and values[latches[index].next] != state[index]
        ]
        if not widened:
            break
        if not first_reader:
            first_reader = [-1] * (aig.max_var + 1)
            next_reader = [-1] * (2 * len(lhs_of))
            for edge, operand in enumerate(chain.from_iterable(zip(rhs0_of, rhs1_of))):
                next_reader[edge] = first_reader[operand >> 1]
                first_reader[operand >> 1] = edge
            first_latch = [-1] * (aig.max_var + 1)
            next_latch = [-1] * len(latches)
            for index, latch in enumerate(latches):
                next_latch[index] = first_latch[latch.next >> 1]
                first_latch[latch.next >> 1] = index
        changed = []
        for index in widened:
            state[index] = _X  # join toward X (monotone widening)
            lit = latches[index].lit
            values[lit] = values[lit ^ 1] = _X
            changed.append(lit >> 1)
            edge = first_reader[lit >> 1]
            while edge >= 0:
                dirty[edge >> 1] = 1
                edge = next_reader[edge]
        # A reader sits after the gate it reads, so one forward sweep over
        # the marks re-evaluates every changed gate after its operands.
        position = dirty.find(1)
        while position >= 0:
            dirty[position] = 0
            a, b = values[rhs0_of[position]], values[rhs1_of[position]]
            result = ((a | b) & _MAY_BE_0) | (a & b & _MAY_BE_1)
            evaluations += 1
            lhs = lhs_of[position]
            if result != values[lhs]:
                values[lhs] = result
                values[lhs ^ 1] = _NEGATED[result]
                changed.append(lhs >> 1)
                edge = first_reader[lhs >> 1]
                while edge >= 0:
                    dirty[edge >> 1] = 1
                    edge = next_reader[edge]
            position = dirty.find(1, position + 1)
        to_check = set()
        for var in changed:
            index = first_latch[var]
            while index >= 0:
                to_check.add(index)
                index = next_latch[index]
    return state, evaluations


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
