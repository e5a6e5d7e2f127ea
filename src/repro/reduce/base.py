"""Foundations of the circuit-reduction subsystem.

A *reduction pass* transforms one AIG into a smaller, property-equivalent
AIG and reports two things alongside the rebuilt circuit:

* a :class:`ReductionInfo` — how many inputs/latches/AND gates the pass
  kept and removed, for shrinkage reports and run manifests;
* per-element *fates* (:class:`LatchFate`) — what happened to every latch
  and input of the pass's input model, so that
  :class:`~repro.reduce.recon.ReconstructionMap` can compose the passes
  and lift counterexample traces and invariant certificates produced on
  the reduced model back to the original one.

All passes funnel their circuit surgery through :func:`rebuild_aig`,
which re-creates the AIG with its gates folded and structurally hashed
(so every pass gets constant folding and common-subexpression sharing
for free), drops gates that no longer feed any latch, constraint or
selected property, and applies latch substitutions (constants from
ternary simulation, representatives from equivalent-latch merging).
"""

from __future__ import annotations

import collections.abc
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.aiger.aig import AIG, FALSE_LIT, TRUE_LIT


class ReductionError(Exception):
    """Raised for malformed pipelines or unliftable witnesses."""


@dataclass
class ReductionInfo:
    """Shrinkage achieved by one pass application."""

    pass_name: str
    inputs_before: int = 0
    inputs_after: int = 0
    latches_before: int = 0
    latches_after: int = 0
    ands_before: int = 0
    ands_after: int = 0
    details: Dict[str, int] = field(default_factory=dict)
    """Pass-specific counters (e.g. ``constant_latches``, ``merged_latches``)."""

    @property
    def reduced(self) -> bool:
        """True if the pass removed anything."""
        return (
            self.inputs_after < self.inputs_before
            or self.latches_after < self.latches_before
            or self.ands_after < self.ands_before
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form used by manifests and the CLI."""
        return {
            "pass": self.pass_name,
            "inputs": [self.inputs_before, self.inputs_after],
            "latches": [self.latches_before, self.latches_after],
            "ands": [self.ands_before, self.ands_after],
            "details": dict(self.details),
        }


# Fate kinds: what a pass did to one latch of its input model.
KEPT = "kept"
CONST = "const"
MERGED = "merged"
FREE = "free"


@dataclass(frozen=True)
class LatchFate:
    """What one pass did with one latch (indexed in the pass's input model).

    * ``kept`` — survives as latch ``new_index`` of the output model;
    * ``const`` — proven stuck at ``value`` and swept away;
    * ``merged`` — equal to latch ``rep_index`` of the *input* model
      (negated when ``negated``) and replaced by it;
    * ``free`` — outside the property's cone; its value never matters.
    """

    kind: str
    new_index: Optional[int] = None
    value: Optional[bool] = None
    rep_index: Optional[int] = None
    negated: bool = False


@dataclass
class PassResult:
    """Everything one pass application produced."""

    aig: AIG
    info: ReductionInfo
    latch_fates: List[LatchFate]
    """Fate of every latch of the pass's input model, by latch index."""

    input_map: List[Optional[int]]
    """Input index of the pass's input model -> output index (None = dropped)."""

    property_index: int
    """Index of the checked property in the output model's bad list."""


class ReductionPass(ABC):
    """One named, composable AIG-level reduction."""

    name: str = "pass"

    @abstractmethod
    def run(self, aig: AIG, property_index: int = 0) -> PassResult:
        """Apply the pass; must be sound and complete for the property."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def selected_bads(aig: AIG) -> List[int]:
    """The property literals of a model (bads, or outputs as fallback)."""
    return list(aig.bads) if aig.bads else list(aig.outputs)


def no_properties_message(aig: AIG) -> str:
    """Error text for models without safety properties.

    AIGER 1.9 justice properties are parsed but never checked, so a model
    that declares only those has nothing to verify; the text says so.
    """
    message = "the AIG declares neither bad states nor outputs"
    if aig.justice:
        count = len(aig.justice)
        message += (
            f" (its {count} justice propert{'y is' if count == 1 else 'ies are'} "
            "parsed but not checked: only safety properties are verified)"
        )
    return message


class MarkedVariables(collections.abc.Set):
    """The variables a var-indexed ``bytearray`` marks 1, seen as a set."""

    def __init__(self, marks: bytearray):
        self.marks = marks

    def __contains__(self, var: object) -> bool:
        return isinstance(var, int) and 0 <= var < len(self.marks) and self.marks[var] == 1

    def __iter__(self) -> Iterator[int]:
        return (var for var, mark in enumerate(self.marks) if mark)

    def __len__(self) -> int:
        return self.marks.count(1)


@dataclass
class FaninCone:
    """One walk of a model's fan-in from a set of root literals."""

    variables: AbstractSet[int]
    """Every variable reached, the constant excluded."""

    gates: List[int]
    """Positions in ``ands`` of the AND gates reached, in list order."""

    latches: List[int]
    """Positions in ``latches`` of the latches reached, in list order."""


def fanin_cone(
    source: AIG, roots: Iterable[int], *, through_latches: bool = False
) -> FaninCone:
    """Walk the fan-in of the ``roots`` literals of ``source``.

    The walk follows AND gates to their operands.  With
    ``through_latches`` it also follows every reached latch to its
    next-state function, which closes the cone over time (the cone of
    influence); otherwise latches are leaves.

    Variables are marked in a ``bytearray`` and found in one
    var-indexed position list (gate position ``p`` as ``p + 1``, latch
    position ``p`` as ``~p``, anything else 0).
    """
    ands = source.ands
    latch_list = source.latches
    size = source.max_var + 1
    position = [0] * size
    for index, latch in enumerate(latch_list):
        position[latch.lit >> 1] = ~index
    for index, gate in enumerate(ands):
        position[gate.lhs >> 1] = index + 1
    marks = bytearray(size)
    marks[0] = 1  # never walked; unmarked again below
    gates: List[int] = []
    latches: List[int] = []
    pending = [lit >> 1 for lit in roots]
    while pending:
        var = pending.pop()
        if marks[var]:
            continue
        marks[var] = 1
        at = position[var]
        if at > 0:
            gates.append(at - 1)
            gate = ands[at - 1]
            pending.append(gate.rhs0 >> 1)
            pending.append(gate.rhs1 >> 1)
        elif at < 0:
            latches.append(~at)
            if through_latches:
                pending.append(latch_list[~at].next >> 1)
    marks[0] = 0
    gates.sort()
    latches.sort()
    return FaninCone(variables=MarkedVariables(marks), gates=gates, latches=latches)


@dataclass
class RebuildResult:
    """Output of :func:`rebuild_aig`."""

    aig: AIG
    input_map: List[Optional[int]]
    latch_map: List[Optional[int]]
    property_index: int


def rebuild_aig(
    source: AIG,
    *,
    keep_inputs: Optional[Set[int]] = None,
    keep_latches: Optional[Set[int]] = None,
    replace: Optional[Dict[int, int]] = None,
    property_index: int = 0,
    only_property: bool = False,
    cone: Optional[FaninCone] = None,
) -> RebuildResult:
    """Rebuild ``source`` with its gates folded and structurally hashed.

    ``keep_inputs``/``keep_latches`` are index sets (None keeps all);
    ``replace`` maps a latch's positive literal to the source-domain
    literal it is replaced with — a constant (``FALSE_LIT``/``TRUE_LIT``)
    or a (possibly negated) literal of a kept latch.  Replaced latches are
    dropped.  Gates are materialized only if they transitively feed a kept
    latch's next-state function, an invariant constraint or an emitted bad
    literal, so dead logic disappears on every rebuild.  With
    ``only_property`` the output declares a single bad literal (the
    selected property, at index 0); otherwise all properties are kept.

    Source literals are read through one table indexed by literal, and
    the gates go through :meth:`AIG.add_mapped_ands` in one loop (the
    rule of :meth:`AIG.add_and`, no call per gate).  The output numbers
    its inputs, then its latches, then its gates in list order, and its
    hash table holds every gate.

    ``cone`` hands over a walk the caller already made (the cone of
    influence pass does): its gates must be exactly those the rebuild
    emits feed on.  Without it, the rebuild walks from what it emits.
    """
    replace = replace or {}
    bads = selected_bads(source)
    if not bads:
        raise ReductionError(no_properties_message(source))
    if not 0 <= property_index < len(bads):
        raise ReductionError(f"property index {property_index} out of range")
    emitted_bads = [bads[property_index]] if only_property else bads
    new_property_index = 0 if only_property else property_index

    # Kept elements are visited by index, in list order, so a small keep
    # set costs no scan of a wide model.
    kept_inputs = _kept_indices(source.num_inputs, keep_inputs)
    kept_latches = [
        index
        for index in _kept_indices(source.num_latches, keep_latches)
        if source.latches[index].lit not in replace
    ]

    # Only gates in the fan-in cone of something we emit are materialized.
    if cone is None:
        roots = [source.latches[index].next for index in kept_latches]
        roots += source.constraints
        roots += emitted_bads
        roots += replace.values()
        cone = fanin_cone(source, roots)

    new = AIG(comment=source.comment)
    # Source literal -> new literal.  A dropped element can only be
    # referenced from logic that cannot influence the property, so it
    # reads as a constant (FALSE, and TRUE when negated): the default.
    lit_map = [FALSE_LIT, TRUE_LIT] * (source.max_var + 1)

    input_map: List[Optional[int]] = [None] * source.num_inputs
    for index in kept_inputs:
        lit = source.inputs[index]
        input_map[index] = new.num_inputs
        new_lit = new.add_input(source.input_name(lit))
        lit_map[lit] = new_lit
        lit_map[lit ^ 1] = new_lit ^ 1

    latch_map: List[Optional[int]] = [None] * source.num_latches
    for index in kept_latches:
        latch = source.latches[index]
        latch_map[index] = new.num_latches
        new_lit = new.add_latch(init=latch.init, name=latch.name)
        lit_map[latch.lit] = new_lit
        lit_map[latch.lit ^ 1] = new_lit ^ 1
    for lit, target in replace.items():
        lit_map[lit] = lit_map[target]
        lit_map[lit ^ 1] = lit_map[target ^ 1]

    ands = source.ands
    new.add_mapped_ands(
        (
            [ands[index].lhs for index in cone.gates],
            [ands[index].rhs0 for index in cone.gates],
            [ands[index].rhs1 for index in cone.gates],
        ),
        lit_map,
    )

    for index in kept_latches:
        latch = source.latches[index]
        new.set_latch_next(lit_map[latch.lit], lit_map[latch.next])
    for constraint in source.constraints:
        new.add_constraint(lit_map[constraint])
    for bad in emitted_bads:
        new.add_bad(lit_map[bad])
    new.validate()
    return RebuildResult(
        aig=new,
        input_map=input_map,
        latch_map=latch_map,
        property_index=new_property_index,
    )


def _kept_indices(count: int, keep: Optional[Set[int]]) -> Sequence[int]:
    """The indices below ``count`` that ``keep`` names (all when None), ascending."""
    if keep is None:
        return range(count)
    return sorted(index for index in keep if 0 <= index < count)


def make_info(pass_name: str, before: AIG, after: AIG, **details: int) -> ReductionInfo:
    """Standard before/after size bookkeeping for a pass."""
    return ReductionInfo(
        pass_name=pass_name,
        inputs_before=before.num_inputs,
        inputs_after=after.num_inputs,
        latches_before=before.num_latches,
        latches_after=after.num_latches,
        ands_before=before.num_ands,
        ands_after=after.num_ands,
        details=dict(details),
    )
