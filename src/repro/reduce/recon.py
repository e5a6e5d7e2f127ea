"""Composition of pass maps and witness lift-back.

Engines run on the reduced model, so their witnesses speak the reduced
model's language: counterexample traces carry cubes over the reduced
transition system's latch variables and input assignments over the
reduced AIG's input literals; certificates carry clauses over reduced
latch variables.  :class:`ReconstructionMap` composes the per-pass latch
and input maps into one original-model view and translates both witness
kinds back so they validate against the *original* AIG with the stock
:func:`~repro.core.invariant.check_counterexample` /
:func:`~repro.core.invariant.check_certificate` oracles:

* **Traces** are lifted by mapping every step's input assignment back to
  original input literals (dropped inputs are free — any value works, 0
  is used) and re-simulating the original circuit, which yields full,
  simulation-consistent state cubes by construction.
* **Certificates** are lifted by renaming kept latch variables, then
  re-asserting what the passes assumed away: one unit clause per
  constant-swept latch and two binary clauses (an equality) per merged
  latch.  The extended clause set is inductive on the original system
  because every substitution a pass performed is justified by exactly one
  of the added clauses.  The checker proves these added clauses
  inductive by structural hashing and leaves only the engine's own
  clauses for SAT; it finds them by their shape, not by trusting this
  map.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.aiger.aig import AIG
from repro.core.result import (
    Certificate,
    CheckOutcome,
    CounterexampleTrace,
    TraceStep,
)
from repro.logic.cube import Clause, Cube
from repro.reduce.base import (
    CONST,
    FREE,
    KEPT,
    MERGED,
    LatchFate,
    PassResult,
    ReductionError,
)


@dataclass(frozen=True)
class _FinalFate:
    """Fate of one original latch after the whole pipeline.

    ``kind`` is one of the :mod:`repro.reduce.base` fate kinds; indices
    refer to the *reduced* model for ``kept`` and to the *original* model
    for a merge representative.
    """

    kind: str
    reduced_index: Optional[int] = None
    value: Optional[bool] = None
    rep_original_index: Optional[int] = None
    negated: bool = False


_FREE = _FinalFate(kind=FREE)
"""The final fate of every latch some pass found outside the cone."""


class ReconstructionMap:
    """Maps witnesses on the reduced model back to the original model."""

    def __init__(
        self,
        original: AIG,
        reduced: AIG,
        property_index: int,
        reduced_property_index: int,
        latch_fates: Sequence[_FinalFate],
        input_origin: Sequence[int],
        latch_origin: Sequence[int],
    ):
        self.original = original
        self.reduced = reduced
        self.property_index = property_index
        self.reduced_property_index = reduced_property_index
        self.latch_fates = list(latch_fates)
        self.input_origin = list(input_origin)
        """Reduced input index -> original input index."""
        self.latch_origin = list(latch_origin)
        """Reduced latch index -> original latch index."""

    # ------------------------------------------------------------------
    # Construction from a pass chain
    # ------------------------------------------------------------------
    @classmethod
    def from_pass_results(
        cls,
        original: AIG,
        results: Sequence[PassResult],
        property_index: int,
    ) -> "ReconstructionMap":
        """Compose the per-pass maps of a pipeline run."""
        if not results:
            raise ReductionError("cannot build a reconstruction map from no passes")
        reduced = results[-1].aig
        reduced_property_index = results[-1].property_index

        # back[s][i] = original latch index behind latch i of pass s's
        # *input* model; back[len(results)] covers the reduced model.
        back: List[List[int]] = [list(range(original.num_latches))]
        for result in results:
            stage_origin = [-1] * result.aig.num_latches
            for index, fate in enumerate(result.latch_fates):
                if fate.kind == KEPT:
                    stage_origin[fate.new_index] = back[-1][index]
            if any(origin < 0 for origin in stage_origin):
                raise ReductionError("a reduced latch has no original counterpart")
            back.append(stage_origin)
        latch_origin = back[-1]

        memo: Dict[object, _FinalFate] = {}

        def resolve(stage: int, index: int) -> _FinalFate:
            """Final fate of latch ``index`` of stage ``stage``'s input model."""
            if stage == len(results):
                return _FinalFate(kind=KEPT, reduced_index=index)
            fate: LatchFate = results[stage].latch_fates[index]
            if fate.kind == FREE:
                return _FREE
            key = (stage, index)
            cached = memo.get(key)
            if cached is not None:
                return cached
            if fate.kind == CONST:
                final = _FinalFate(kind=CONST, value=fate.value)
            elif fate.kind == KEPT:
                final = resolve(stage + 1, fate.new_index)
            elif fate.kind == MERGED:
                rep_fate = results[stage].latch_fates[fate.rep_index]
                if rep_fate.kind != KEPT:
                    raise ReductionError("merge representative was not kept by its pass")
                downstream = resolve(stage + 1, rep_fate.new_index)
                if downstream.kind == CONST:
                    final = _FinalFate(
                        kind=CONST, value=downstream.value != fate.negated
                    )
                elif downstream.kind == MERGED:
                    final = _FinalFate(
                        kind=MERGED,
                        rep_original_index=downstream.rep_original_index,
                        negated=fate.negated != downstream.negated,
                    )
                else:
                    # The representative survives (KEPT) or later leaves the
                    # cone (FREE).  Either way the equality was substituted
                    # into the model, so certificate lift-back must restate
                    # it — keep the merge, named by the original latch.
                    final = _FinalFate(
                        kind=MERGED,
                        rep_original_index=back[stage][fate.rep_index],
                        negated=fate.negated,
                    )
            else:  # pragma: no cover - defensive
                raise ReductionError(f"unknown latch fate {fate.kind!r}")
            memo[key] = final
            return final

        resolved_fates = [resolve(0, index) for index in range(original.num_latches)]

        # Compose the input maps front to back: each pass's map is read
        # once, as a reverse map from its output inputs to its input inputs.
        input_origin: List[Optional[int]] = list(range(original.num_inputs))
        for result in results:
            stage_origin: List[Optional[int]] = [None] * result.aig.num_inputs
            for index, new_index in enumerate(result.input_map):
                if new_index is not None and stage_origin[new_index] is None:
                    stage_origin[new_index] = input_origin[index]
            input_origin = stage_origin
        if None in input_origin:
            raise ReductionError("a reduced input has no original counterpart")

        return cls(
            original=original,
            reduced=reduced,
            property_index=property_index,
            reduced_property_index=reduced_property_index,
            latch_fates=resolved_fates,
            input_origin=input_origin,
            latch_origin=latch_origin,
        )

    # ------------------------------------------------------------------
    # Variable numbering (witnesses speak TransitionSystem's)
    # ------------------------------------------------------------------
    def _latch_variables(self):
        """The original and the reduced model's latch variables."""
        # Imported lazily: repro.ts re-exports the COI shim, which imports
        # this package back.  Only the numbering is needed, so no
        # TransitionSystem is built.
        from repro.ts.system import latch_variables

        return latch_variables(self.original), latch_variables(self.reduced)

    # ------------------------------------------------------------------
    # Lifting
    # ------------------------------------------------------------------
    def lift_trace(self, trace: CounterexampleTrace) -> CounterexampleTrace:
        """Translate a reduced-model counterexample to the original model."""
        if not trace.steps:
            raise ReductionError("cannot lift an empty counterexample trace")
        original, reduced = self.original, self.reduced

        # 1. Initial latch values: kept latches take the first cube's
        # values (needed for latches without a defined reset); everything
        # else starts from its reset value (False when undefined — sound,
        # because such latches are outside the cone or derived).
        original_var, reduced_var = self._latch_variables()
        latch_index_of_var = {var: index for index, var in enumerate(reduced_var)}
        first_cube_value: Dict[int, bool] = {}
        for lit in trace.steps[0].state:
            index = latch_index_of_var.get(abs(lit))
            if index is not None:
                first_cube_value[index] = lit > 0

        initial: Dict[int, bool] = {}
        for index, latch in enumerate(original.latches):
            fate = self.latch_fates[index]
            value = bool(latch.init) if latch.init is not None else False
            if fate.kind == KEPT and fate.reduced_index in first_cube_value:
                value = first_cube_value[fate.reduced_index]
            initial[latch.lit] = value

        # 2. Input assignments, renamed to original input literals.
        input_index_of_lit = {
            lit: index for index, lit in enumerate(reduced.inputs)
        }
        input_sequence: List[Dict[int, bool]] = []
        for step in trace.steps:
            assignment = {lit: False for lit in original.inputs}
            for reduced_lit, value in step.inputs.items():
                reduced_index = input_index_of_lit.get(reduced_lit & ~1)
                if reduced_index is None:
                    continue
                original_lit = original.inputs[self.input_origin[reduced_index]]
                assignment[original_lit] = bool(value) != bool(reduced_lit & 1)
            input_sequence.append(assignment)

        # 3. Re-simulate the original circuit; the records are full,
        # consistent-by-construction states.  The latch variables ascend,
        # so each cube is built in canonical order.  Values are looked up
        # by latch literal, one per latch, so the cube covers every latch
        # even where the record's dictionary does not.
        records = original.simulate(input_sequence, initial_latches=initial)
        latch_lits = [latch.lit for latch in original.latches]
        steps = []
        for record, assignment in zip(records, input_sequence):
            values = map(record["latches"].__getitem__, latch_lits)
            literals = tuple([
                var if value else -var for var, value in zip(original_var, values)
            ])
            steps.append(
                TraceStep(state=Cube._from_canonical(literals), inputs=assignment)
            )
        return CounterexampleTrace(steps=steps)

    def lift_certificate(self, certificate: Certificate) -> Certificate:
        """Translate a reduced-model invariant to the original model.

        Adds the constancy / equivalence facts the passes relied on, so
        the result is inductive on the original transition system.
        """
        original_var, reduced_var = self._latch_variables()
        latch_index_of_var = {var: index for index, var in enumerate(reduced_var)}

        clauses: List[Clause] = []
        for index, fate in enumerate(self.latch_fates):
            var = original_var[index]
            if fate.kind == CONST:
                clauses.append(Clause([var if fate.value else -var]))
            elif fate.kind == MERGED:
                rep = original_var[fate.rep_original_index]
                rep_lit = -rep if fate.negated else rep
                clauses.append(Clause([-var, rep_lit]))
                clauses.append(Clause([var, -rep_lit]))

        for clause in certificate.clauses:
            lifted = []
            for lit in clause:
                index = latch_index_of_var.get(abs(lit))
                if index is None:
                    raise ReductionError(
                        f"certificate literal {lit} is not a reduced latch variable"
                    )
                var = original_var[self.latch_origin[index]]
                lifted.append(var if lit > 0 else -var)
            clauses.append(Clause(lifted))
        return Certificate(clauses=clauses, level=certificate.level)

    def lift_outcome(self, outcome: CheckOutcome) -> CheckOutcome:
        """Lift whatever witness an outcome carries; verdict is unchanged."""
        lifted = copy.copy(outcome)
        if outcome.trace is not None:
            lifted.trace = self.lift_trace(outcome.trace)
        if outcome.certificate is not None:
            lifted.certificate = self.lift_certificate(outcome.certificate)
        return lifted
