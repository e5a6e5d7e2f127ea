"""Time-frame unrolling of an AIG for BMC and k-induction.

The :class:`Unroller` lazily instantiates a fresh copy of the circuit's
combinational logic for each time frame and adds the frame-to-frame latch
connection clauses directly into a SAT solver.  ``lit_at(aig_lit, frame)``
returns the solver literal that represents an AIG literal at a given time
frame, so callers can constrain inputs, assert bad cones, or read back
concrete traces from a model.

The unrolling is strictly monotone: frames are only ever appended, never
re-encoded, so one persistent unroller serves a whole BMC or k-induction
run.  With ``init_as_assumption=True`` the initial-state constraint is
guarded by an activation literal instead of being asserted as unit
clauses: a single unrolling then answers *both* initialised queries (BMC
and k-induction base cases, by assuming :meth:`init_assumptions`) and
uninitialised ones (the k-induction step case), sharing all frame clauses
and learnt clauses between them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.aiger.aig import AIG, FALSE_LIT, TRUE_LIT
from repro.core.result import CounterexampleTrace, TraceStep
from repro.logic.cube import Cube
from repro.obs.tracer import get_tracer
from repro.sat.arena import ArenaSolver


class Unroller:
    """Incrementally unrolls an AIG into a SAT solver.

    The solver is either passed in directly or a fresh
    :class:`~repro.sat.arena.ArenaSolver`, seeded with ``seed``.
    """

    def __init__(
        self,
        aig: AIG,
        solver: Optional[ArenaSolver] = None,
        use_init: bool = True,
        init_as_assumption: bool = False,
        seed: int = 0,
    ):
        aig.validate()
        self.aig = aig
        self.solver = solver if solver is not None else ArenaSolver()
        if seed:
            self.solver.set_seed(seed)
        self.use_init = use_init
        self.init_as_assumption = init_as_assumption
        # Validated global-invariant clauses (AIG literals over latches),
        # asserted on every existing and future time frame — the import
        # side of cooperative lemma sharing (see repro.core.share).
        self._invariant_clauses: List[List[int]] = []
        # Allocated lazily after frame 0's variables so that the frame-0
        # variable numbering matches the TransitionSystem encoding (the
        # trace validators rely on that correspondence).
        self._init_act: Optional[int] = None
        self._frames: List[Dict[int, int]] = []  # frame -> {aig_var -> solver var}
        self._const_true = self.solver.new_var()
        self.solver.add_clause([self._const_true])

    def init_assumptions(self) -> List[int]:
        """Assumption literals that anchor frame 0 at the initial states.

        Empty unless ``init_as_assumption`` was requested (with plain
        ``use_init`` the anchoring is hard-coded as unit clauses).
        """
        if self.use_init and self.init_as_assumption and self.num_frames == 0:
            # Build frame 0 now so the guard variable exists even when
            # this is the first call on a fresh unroller.
            self.lit_at(TRUE_LIT, 0)
        if self._init_act is None:
            return []
        return [self._init_act]

    @property
    def num_frames(self) -> int:
        """Number of time frames instantiated so far."""
        return len(self._frames)

    # ------------------------------------------------------------------
    # Literal mapping
    # ------------------------------------------------------------------
    def lit_at(self, aig_lit: int, frame: int) -> int:
        """Solver literal for ``aig_lit`` at time ``frame`` (frames from 0)."""
        while self.num_frames <= frame:
            self._add_frame()
        if aig_lit == FALSE_LIT:
            return -self._const_true
        if aig_lit == TRUE_LIT:
            return self._const_true
        var = self._frames[frame][aig_lit >> 1]
        return -var if aig_lit & 1 else var

    def latch_cube_at(self, model: Dict[int, bool], frame: int) -> Cube:
        """Project a model onto the latch values at a frame."""
        literals = []
        for latch in self.aig.latches:
            lit = self.lit_at(latch.lit, frame)
            value = model.get(abs(lit), False)
            if lit < 0:
                value = not value
            literals.append(abs(lit) if value else -abs(lit))
        return Cube(literals)

    def input_values_at(self, model: Dict[int, bool], frame: int) -> Dict[int, bool]:
        """Project a model onto the AIG input literals at a frame."""
        values: Dict[int, bool] = {}
        for aig_lit in self.aig.inputs:
            lit = self.lit_at(aig_lit, frame)
            value = model.get(abs(lit), False)
            values[aig_lit] = (not value) if lit < 0 else value
        return values

    def extract_trace(self, depth: int) -> CounterexampleTrace:
        """The counterexample of frames ``0..depth`` in the solver's model.

        Call right after an initialised query that asserted the bad cone
        at ``depth`` came back SAT.
        """
        model = self.solver.get_model()
        return CounterexampleTrace(
            steps=[
                TraceStep(
                    state=self.latch_cube_at(model, frame),
                    inputs=self.input_values_at(model, frame),
                )
                for frame in range(depth + 1)
            ]
        )

    # ------------------------------------------------------------------
    # Frame construction
    # ------------------------------------------------------------------
    def _add_frame(self) -> None:
        tracer = get_tracer()
        if not tracer.enabled:
            self._add_frame_inner()
            return
        with tracer.span(
            "unroll.frame", cat="unroll", frame=len(self._frames)
        ):
            self._add_frame_inner()

    def _add_frame_inner(self) -> None:
        frame_index = len(self._frames)
        var_map: Dict[int, int] = {}
        for aig_lit in self.aig.inputs:
            var_map[aig_lit >> 1] = self.solver.new_var()
        for latch in self.aig.latches:
            var_map[latch.lit >> 1] = self.solver.new_var()
        for gate in self.aig.ands:
            var_map[gate.lhs >> 1] = self.solver.new_var()
        self._frames.append(var_map)

        # Combinational logic of this frame.
        for gate in self.aig.ands:
            out = self.lit_at(gate.lhs, frame_index)
            a = self.lit_at(gate.rhs0, frame_index)
            b = self.lit_at(gate.rhs1, frame_index)
            self.solver.add_clause([-out, a])
            self.solver.add_clause([-out, b])
            self.solver.add_clause([out, -a, -b])

        # Invariant constraints hold on every frame.
        for constraint in self.aig.constraints:
            self.solver.add_clause([self.lit_at(constraint, frame_index)])

        # Validated global invariants hold on every frame too.
        for clause in self._invariant_clauses:
            self.solver.add_clause(
                [self.lit_at(aig_lit, frame_index) for aig_lit in clause]
            )

        if frame_index == 0:
            if self.use_init:
                if self.init_as_assumption and self._init_act is None:
                    self._init_act = self.solver.new_activation()
                for latch in self.aig.latches:
                    if latch.init is None:
                        continue
                    lit = self.lit_at(latch.lit, 0)
                    clause = [lit if latch.init == 1 else -lit]
                    if self._init_act is not None:
                        self.solver.add_guarded(self._init_act, clause)
                    else:
                        self.solver.add_clause(clause)
        else:
            # Latch at frame k equals its next-state function at frame k-1.
            for latch in self.aig.latches:
                now = self.lit_at(latch.lit, frame_index)
                prev_next = self.lit_at(latch.next, frame_index - 1)
                self.solver.add_clause([-now, prev_next])
                self.solver.add_clause([now, -prev_next])

    def add_invariant_clause(self, aig_lits: Sequence[int]) -> None:
        """Assert a *validated global invariant* clause on every frame.

        ``aig_lits`` are AIG literals over latches.  The caller must have
        proven the clause to hold on all reachable states (see
        :class:`repro.core.share.UnrollingInvariantImporter`): only then
        is asserting it at every time frame sound for both initialized
        and uninitialized queries without masking real counterexamples.
        """
        clause = list(aig_lits)
        self._invariant_clauses.append(clause)
        for frame_index in range(self.num_frames):
            self.solver.add_clause(
                [self.lit_at(aig_lit, frame_index) for aig_lit in clause]
            )

    def bad_lit_at(self, frame: int, property_index: int = 0) -> int:
        """Solver literal of the bad cone (or first output) at a frame."""
        bads = self.aig.bads if self.aig.bads else self.aig.outputs
        return self.lit_at(bads[property_index], frame)
