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
which re-creates the AIG through the structural-hashing builder (so every
pass gets constant folding and common-subexpression sharing for free),
drops gates that no longer feed any latch, constraint or selected
property, and applies latch substitutions (constants from ternary
simulation, representatives from equivalent-latch merging).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

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


@dataclass
class FaninCone:
    """One walk of a model's fan-in from a set of root literals."""

    variables: Set[int]
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
    """
    ands = source.ands
    gate_at = {gate.lhs >> 1: index for index, gate in enumerate(ands)}
    latch_at = {latch.lit >> 1: index for index, latch in enumerate(source.latches)}
    reached: Set[int] = set()
    gates: List[int] = []
    latches: List[int] = []
    pending = [lit >> 1 for lit in roots]
    while pending:
        var = pending.pop()
        if var in reached or var == 0:
            continue
        reached.add(var)
        index = gate_at.get(var)
        if index is not None:
            gates.append(index)
            gate = ands[index]
            pending.append(gate.rhs0 >> 1)
            pending.append(gate.rhs1 >> 1)
            continue
        index = latch_at.get(var)
        if index is not None:
            latches.append(index)
            if through_latches:
                pending.append(source.latches[index].next >> 1)
    gates.sort()
    latches.sort()
    return FaninCone(variables=reached, gates=gates, latches=latches)


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
    """Rebuild ``source`` through the structural-hashing builder.

    ``keep_inputs``/``keep_latches`` are index sets (None keeps all);
    ``replace`` maps a latch's positive literal to the source-domain
    literal it is replaced with — a constant (``FALSE_LIT``/``TRUE_LIT``)
    or a (possibly negated) literal of a kept latch.  Replaced latches are
    dropped.  Gates are materialized only if they transitively feed a kept
    latch's next-state function, an invariant constraint or an emitted bad
    literal, so dead logic disappears on every rebuild.  With
    ``only_property`` the output declares a single bad literal (the
    selected property, at index 0); otherwise all properties are kept.

    ``cone`` hands over a walk the caller already made (the cone of
    influence pass does): its gates must be exactly those the rebuild
    emits feed on.  Without it, the rebuild walks from what it emits.
    """
    replace = dict(replace or {})
    bads = selected_bads(source)
    if not bads:
        raise ReductionError(no_properties_message(source))
    if not 0 <= property_index < len(bads):
        raise ReductionError(f"property index {property_index} out of range")
    emitted_bads = [bads[property_index]] if only_property else bads
    new_property_index = 0 if only_property else property_index

    new = AIG(comment=source.comment)
    new_lit_of: Dict[int, int] = {FALSE_LIT: FALSE_LIT, TRUE_LIT: TRUE_LIT}

    # Kept elements are visited by index, in list order, so a small keep
    # set costs no scan of a wide model.
    input_map: List[Optional[int]] = [None] * source.num_inputs
    for index in _kept_indices(source.num_inputs, keep_inputs):
        lit = source.inputs[index]
        input_map[index] = new.num_inputs
        new_lit_of[lit] = new.add_input(source.input_name(lit))

    latch_map: List[Optional[int]] = [None] * source.num_latches
    kept_latches = []
    for index in _kept_indices(source.num_latches, keep_latches):
        latch = source.latches[index]
        if latch.lit in replace:
            continue
        latch_map[index] = new.num_latches
        new_lit_of[latch.lit] = new.add_latch(init=latch.init, name=latch.name)
        kept_latches.append(latch)

    # Only gates in the fan-in cone of something we emit are materialized.
    if cone is None:
        roots = [latch.next for latch in kept_latches]
        roots += source.constraints
        roots += emitted_bads
        roots += replace.values()
        cone = fanin_cone(source, roots)

    def map_lit(lit: int) -> int:
        # Replaced latches are never in ``new_lit_of``, so the common case,
        # an element already rebuilt, needs one lookup.
        base = lit & ~1
        mapped = new_lit_of.get(base)
        if mapped is not None:
            return mapped ^ (lit & 1)
        target = replace.get(base)
        if target is not None:
            return map_lit(target ^ (lit & 1))
        # A dropped element can only be referenced from logic that cannot
        # influence the property; any constant is sound.
        return FALSE_LIT ^ (lit & 1)

    ands = source.ands
    for index in cone.gates:
        gate = ands[index]
        new_lit_of[gate.lhs] = new.add_and(map_lit(gate.rhs0), map_lit(gate.rhs1))

    for latch in kept_latches:
        new.set_latch_next(new_lit_of[latch.lit], map_lit(latch.next))
    for constraint in source.constraints:
        new.add_constraint(map_lit(constraint))
    for bad in emitted_bads:
        new.add_bad(map_lit(bad))
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
