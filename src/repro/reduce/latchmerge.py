"""Equivalent-latch merging (structural latch correspondence).

Two latches are sequentially equivalent when they hold the same value (or
complementary values) in every reachable state.  The pass finds such
pairs with the classic greatest-fixpoint partition refinement:

1. Normalize each latch ``L`` to ``n(L) = L xor init(L)`` so every
   initialized latch starts at 0, and optimistically place all of them in
   one equivalence class (latches without a defined reset stay singleton).
2. Refine: hash-cons every latch's next-state function in a scratch
   graph of plain ints, substituting each latch with a per-class
   placeholder variable (phase-corrected).  The structurally hashed
   result literal, XOR'd with the latch's init phase, is the latch's
   *signature*; latches with different signatures cannot stay in one
   class.
3. Iterate until the partition is stable.

At the fixpoint every class is self-consistent — all members have
identical normalized next functions once members are replaced by their
representative — so equality of members follows by mutual induction from
the equal initial values.  Non-representative members are then replaced
by their (phase-corrected) representative and swept.  Certificate
lift-back re-asserts the merged equalities as two binary clauses per
swept latch (see :mod:`repro.reduce.recon`).

Structural refinement is conservative: it only merges what hashing can
see, never more, so soundness does not depend on any SAT reasoning.
"""

from __future__ import annotations

from typing import Dict, List

from repro.aiger.aig import AIG, FALSE_LIT, TRUE_LIT, GateColumns, hash_ands
from repro.reduce.base import (
    KEPT,
    MERGED,
    LatchFate,
    PassResult,
    ReductionPass,
    make_info,
    rebuild_aig,
)


def equivalent_latch_classes(aig: AIG) -> List[List[int]]:
    """Partition latch indices into proven-equivalent classes.

    Only classes with at least two members are returned; each class lists
    latch indices, smallest (the representative) first.  Members may be
    *anti*-equivalent to the representative — phase is recovered from the
    init values (``init(L) != init(rep)`` means ``L == !rep``).
    """
    latches = aig.latches
    # class id per latch; -1 marks latches that can never merge (no reset).
    class_of: List[int] = []
    for latch in latches:
        class_of.append(0 if latch.init is not None else -1)

    gates = aig.gate_columns()
    while True:
        signatures = _signatures(aig, class_of, gates)
        # Split every class by signature.
        next_class_of = list(class_of)
        key_to_class: Dict[object, int] = {}
        next_id = 0
        for index, latch in enumerate(latches):
            if class_of[index] < 0:
                continue
            key = (class_of[index], signatures[index])
            if key not in key_to_class:
                key_to_class[key] = next_id
                next_id += 1
            next_class_of[index] = key_to_class[key]
        if next_class_of == class_of:
            break
        class_of = next_class_of

    members: Dict[int, List[int]] = {}
    for index, cls in enumerate(class_of):
        if cls >= 0:
            members.setdefault(cls, []).append(index)
    return [sorted(group) for cls, group in sorted(members.items()) if len(group) > 1]


def _signatures(aig: AIG, class_of: List[int], gates: GateColumns) -> List[int]:
    """Normalized structural signature of every latch's next function.

    Every latch's next function is hash-consed in a scratch graph of
    plain ints (:func:`~repro.aiger.aig.hash_ands` into a dict of literal
    pairs; no AIG is built) in which each input, each equivalence class
    and each unmergeable latch is one placeholder variable.  Equal
    signature literals mean structurally identical normalized next
    functions under the current partition.
    """
    lit_map = [FALSE_LIT, TRUE_LIT] * (aig.max_var + 1)
    var = 0
    for lit in aig.inputs:
        var += 1
        lit_map[lit] = 2 * var
        lit_map[lit ^ 1] = 2 * var + 1
    placeholder: Dict[int, int] = {}  # class id -> placeholder literal
    for index, latch in enumerate(aig.latches):
        cls = class_of[index]
        if cls < 0:
            var += 1
            lit = 2 * var
        else:
            lit = placeholder.get(cls)
            if lit is None:
                var += 1
                lit = placeholder[cls] = 2 * var
            # Normalized: latch == class placeholder xor init.
            lit ^= int(latch.init)
        lit_map[latch.lit] = lit
        lit_map[latch.lit ^ 1] = lit ^ 1
    hash_ands(gates, lit_map, {}, var)
    return [
        lit_map[latch.next] ^ (int(latch.init) if latch.init is not None else 0)
        for latch in aig.latches
    ]


class EquivalentLatchPass(ReductionPass):
    """Merge sequentially equivalent latches onto one representative."""

    name = "merge"

    def run(self, aig: AIG, property_index: int = 0) -> PassResult:
        classes = equivalent_latch_classes(aig)
        replace: Dict[int, int] = {}
        merged_with: Dict[int, LatchFate] = {}
        for group in classes:
            rep_index = group[0]
            rep = aig.latches[rep_index]
            for index in group[1:]:
                latch = aig.latches[index]
                negated = latch.init != rep.init
                replace[latch.lit] = rep.lit ^ int(negated)
                merged_with[index] = LatchFate(
                    kind=MERGED, rep_index=rep_index, negated=negated
                )

        rebuilt = rebuild_aig(aig, replace=replace, property_index=property_index)
        fates = []
        for index in range(aig.num_latches):
            fate = merged_with.get(index)
            if fate is None:
                fate = LatchFate(kind=KEPT, new_index=rebuilt.latch_map[index])
            fates.append(fate)
        info = make_info(
            self.name,
            aig,
            rebuilt.aig,
            merged_latches=len(replace),
            equivalence_classes=len(classes),
        )
        return PassResult(
            aig=rebuilt.aig,
            info=info,
            latch_fates=fates,
            input_map=rebuilt.input_map,
            property_index=rebuilt.property_index,
        )
