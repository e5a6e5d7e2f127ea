"""Frame sequence management and the SAT queries of IC3.

The frame sequence is *delta encoded*: ``frames[i]`` stores only the cubes
whose lemma lives exactly at level ``i``; the logical frame ``F_i`` is the
conjunction of the lemmas stored at every level ``j >= i``.

IC3 runs on :class:`MonolithicFrameManager`: **one** persistent
incremental solver for the whole run.  Frame membership is expressed by
activation literals: the lemma ``¬c`` at level ``i`` is added once as
``¬act_i ∨ ¬c`` and a query against the logical frame ``F_i`` simply
assumes ``{act_i, …, act_top}``.  Temporary per-query clauses live in
recyclable activation scopes that are truly deleted after the query, so
no garbage-driven solver rebuilds are needed.

:class:`PerFrameFrameManager` (one solver per frame, the IC3ref
architecture) is not reachable from the engine; the tests keep it as the
differential reference for the monolithic activation chain and deferred
promotions.

The three queries every IC3 variant needs:

* :meth:`FrameManagerBase.get_bad_state` — ``SAT?(F_k ∧ Bad)``;
* :meth:`FrameManagerBase.consecution` — ``SAT?(F_i ∧ ¬c ∧ T ∧ c')`` with
  assumption-core extraction on UNSAT and CTI/CTP extraction on SAT.
  Every SAT answer at a level >= 1 is kept in the consecution witness
  store of :class:`FrameManagerBase`, which answers later failing
  queries without a SAT call;
* :meth:`FrameManagerBase.lift_predecessor` — assumption-core shrinking of
  a concrete predecessor state, or of a bad state against the property.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.options import IC3Options
from repro.core.stats import IC3Stats
from repro.logic.cube import Clause, Cube
from repro.sat.arena import ArenaSolver
from repro.ts.system import TransitionSystem


class ConsecutionResult:
    """Outcome of one relative-induction query.

    * ``holds``: True on UNSAT (``¬cube`` is inductive relative to the frame);
    * ``core_cube``: on UNSAT, the subset of the cube present in the
      assumption core;
    * ``predecessor``: on SAT, the pre-state s of the counterexample (full
      latch cube);
    * ``inputs``: on SAT, the input assignment of the counterexample
      transition;
    * ``successor``: on SAT, the post-state t (the CTP state), over
      current-state variables;
    * ``input_values``: on SAT, AIG input literal -> value (for trace
      reconstruction); empty otherwise.

    Answers are read-only: the witness store hands one stored answer to
    every query it answers.  Keyword construction sets the fields as
    given.  The frame layer's own answers keep what the solver returned
    and build ``core_cube``, ``inputs`` and ``input_values`` on first
    read (:class:`_HeldAnswer`, :class:`_FailedAnswer`).
    """

    __slots__ = ("holds", "core_cube", "predecessor", "inputs", "successor", "input_values")

    def __init__(
        self,
        holds: bool,
        core_cube: Optional[Cube] = None,
        predecessor: Optional[Cube] = None,
        inputs: Optional[Cube] = None,
        successor: Optional[Cube] = None,
        input_values: Optional[Dict[int, bool]] = None,
    ):
        self.holds = holds
        self.core_cube = core_cube
        self.predecessor = predecessor
        self.inputs = inputs
        self.successor = successor
        self.input_values = {} if input_values is None else input_values

    def __repr__(self) -> str:
        fields = ("holds", "core_cube", "predecessor", "inputs", "successor", "input_values")
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"ConsecutionResult({body})"


class _ModelInputs:
    """``inputs`` and ``input_values`` of a SAT answer, decoded on first
    read from the model's raw input values ``_bits``
    (:meth:`TransitionSystem.input_bits`)."""

    __slots__ = ()

    @property
    def inputs(self) -> Cube:
        inputs = self._inputs
        if inputs is None:
            inputs = self._inputs = self._ts.inputs_of(self._bits)
        return inputs

    @property
    def input_values(self) -> Dict[int, bool]:
        values = self._input_values
        if values is None:
            values = self._input_values = self._ts.input_values_of(self._bits)
        return values


class _HeldAnswer(ConsecutionResult):
    """The UNSAT answer of a consecution query.  It keeps a snapshot of
    the solver's assumption core, taken right after the solve, and builds
    ``core_cube`` from it on first read: the literals of ``cube`` whose
    primed copies (``primed``, in the same order) are in the core."""

    __slots__ = ("_cube", "_primed", "_core")
    holds = True
    predecessor = inputs = successor = None
    input_values = MappingProxyType({})

    def __init__(self, cube: Cube, primed: List[int], core: List[int]):
        self._cube = cube
        self._primed = primed
        self._core = core

    @property
    def core_cube(self) -> Cube:
        if self._core is not None:
            core = set(self._core)
            self._cube = Cube._from_canonical(tuple(
                [lit for lit, primed in zip(self._cube.literals, self._primed) if primed in core]
            ))
            self._primed = self._core = None
        return self._cube


class _FailedAnswer(_ModelInputs, ConsecutionResult):
    """The SAT answer of a consecution query, with its inputs decoded on
    first read."""

    __slots__ = ("_ts", "_bits", "_inputs", "_input_values")
    holds = False
    core_cube = None

    def __init__(self, predecessor: Cube, successor: Cube, ts: TransitionSystem, bits):
        self.predecessor = predecessor
        self.successor = successor
        self._ts = ts
        self._bits = bits
        self._inputs = self._input_values = None


class BadState(_ModelInputs):
    """A state of the top frame that can violate the property, with the
    inputs that make it do so (decoded on first read).  Read-only."""

    __slots__ = ("state", "_ts", "_bits", "_inputs", "_input_values")

    def __init__(self, state: Cube, ts: TransitionSystem, bits):
        self.state = state
        self._ts = ts
        self._bits = bits
        self._inputs = self._input_values = None


class FrameManagerBase:
    """Shared lemma bookkeeping of both frame-management substrates.

    Subclasses implement the solver side through four hooks:
    ``_open_frame``, ``_install_lemma``, ``_install_promotion`` and
    ``_note_subsumed`` plus the three SAT queries.

    **Answers.**  Every query answers with a read-only object
    (:class:`ConsecutionResult`, :class:`BadState`) that builds its
    fields on first read: an UNSAT answer keeps a snapshot of the
    assumption core and builds ``core_cube`` from it, and a SAT answer
    keeps the model's input values as bytes and decodes ``inputs`` and
    ``input_values`` from them.  Propagation reads only ``holds`` and the
    successor, so most answers never build the rest.  Decoding runs in
    the reader's layer: lifting, a new obligation, a trace, or
    generalization's core.

    The base also keeps the **consecution witness store**.  Every SAT
    answer of ``consecution(L, c)`` at ``L >= 1`` is recorded as a
    witness ``(min_level, s, i, t)``: the model's pre-state ``s`` and
    successor ``t`` (full latch cubes) and its inputs ``i``, with
    ``min_level = L``.  The store keeps the answer object itself and
    hands that same object to every query it answers, so a reuse builds
    nothing, and inputs a reader once decoded stay decoded.  A later
    query ``(L', c')`` is answered from a witness, without a SAT call,
    when ``min_level <= L'``, ``c' ⊆ t`` and ``c' ⊄ s``.  When a lemma ``¬d`` enters level ``j``
    (:meth:`add_blocked_cube`, or :meth:`promote_cube` to ``j``), every
    witness with ``d ⊆ s`` gets ``min_level := max(min_level, j + 1)``;
    seed clauses, CTG and prediction all add lemmas through those two
    methods.  A caller passing ``reuse=False`` always
    gets a SAT call (its model is still recorded): generalization's drop
    attempts do, see :mod:`repro.core.generalize`.

    Why an answer is sound: the invariant kept is ``s ∈ F_L'`` for every
    ``L' >= min_level``.  It holds when the witness is recorded, since
    ``s ∈ F_L`` and ``F_L ⊆ F_L'``.  Frames only get stronger, and only
    by lemmas entering through the two methods above, so a lemma at
    ``j`` can remove ``s`` from ``F_1..F_j`` only if it blocks ``s``,
    which is exactly the invalidation.  ``T`` and the invariant
    constraints never change, and ``(s, i)`` deterministically yields
    the full successor ``t``, so ``s ∧ i ∧ T ∧ t'`` still holds.  With
    ``c' ⊆ t`` the successor lies in ``c'``, and because ``s`` assigns
    every latch, ``c' ⊄ s`` means ``s ⊨ ¬c'``: the transition is a model
    of ``F_L' ∧ ¬c' ∧ T ∧ c''``.  Lifting the reused predecessor against
    ``c'`` therefore stays valid too.  Frame 0 (the initial states) is a
    different formula; it is never recorded nor answered, which
    ``min_level >= 1`` ensures.  Memory grows with the number of
    distinct ``(s, t)`` answers; lookups cost one integer AND per
    literal over per-literal bitmask indexes of ``t`` and of ``s``,
    plus one with the bitmask of the witnesses usable at ``L'``.

    ``min_level`` itself is kept as those per-level bitmasks: bit ``k``
    of ``_usable[L]`` is set iff witness ``k`` has ``min_level <= L``.
    Lemmas live at levels ``<= top``, so every ``min_level`` is at most
    ``top + 1``, and a newly opened top frame starts with every witness
    usable.

    **Skipped pushes.**  Every failed consecution of a cube ``c`` at a
    level ``>= 1`` that the store may answer (``reuse``), SAT or store
    answer, remembers the index of the witness ``w`` that answered it.
    Drop attempts (``reuse=False``) do not: a failed drop's cube is
    discarded, never a lemma, so its entry would only hold memory.
    :meth:`refuted_push` lets the propagation sweep skip the push of
    ``¬c`` from level ``L`` while ``w`` is still usable at ``L``: one bit
    test of ``_usable[L]``.  That is sound and changes no answer, because
    ``c ⊆ t_w`` and ``c ⊄ s_w`` are fixed properties of ``w`` and ``c``,
    so the query ``consecution(L, c)`` would be answered from the store
    too; the skip counts in ``consecution_reuses`` like that answer.  The
    only thing the skip does not produce is the answer's successor, the
    CTP of lemma prediction: the store would return the newest witness
    among ``_usable[L]`` that refutes ``c``.  The skip therefore returns
    ``_usable[L]`` itself, and :meth:`refuting_successor` resolves it
    later to exactly that witness: the per-literal indexes only gain bits
    for witnesses recorded afterwards, and those are not in the mask.
    """

    def __init__(self, ts: TransitionSystem, options: IC3Options, stats: IC3Stats):
        self.ts = ts
        self.options = options
        self.stats = stats
        self.frames: List[List[Cube]] = []
        # Consecution witness store: ``_witnesses[k]`` is the failed
        # answer itself, one per distinct ``(s, t)`` (``_witness_keys``
        # maps it to ``k``).  Bit ``k`` of ``_successor_index[lit]`` /
        # ``_state_index[lit]`` is set when ``t`` / ``s`` contains
        # ``lit``, and of ``_usable[L]`` when the witness may answer
        # queries at level ``L``.
        self._witnesses: List[ConsecutionResult] = []
        self._witness_keys: Dict[Tuple[FrozenSet[int], FrozenSet[int]], int] = {}
        self._successor_index: Dict[int, int] = {}
        self._state_index: Dict[int, int] = {}
        self._usable: List[int] = []
        # ``_refuted[c]``: the witness that answered the last failed
        # consecution of ``c``.
        self._refuted: Dict[Cube, int] = {}

    # ------------------------------------------------------------------
    # Frame construction
    # ------------------------------------------------------------------
    @property
    def top_level(self) -> int:
        """Index of the highest frame currently open (the k of IC3)."""
        return len(self.frames) - 1

    def add_frame(self) -> int:
        """Open a new top frame F_{k+1} = ⊤ and return its index."""
        self._push_new_frame()
        self.stats.frames_opened += 1
        return self.top_level

    def _push_new_frame(self) -> None:
        level = len(self.frames)
        self.frames.append([])
        self._usable.append((1 << len(self._witnesses)) - 1 if level else 0)
        self._open_frame(level)

    # ------------------------------------------------------------------
    # Lemma bookkeeping
    # ------------------------------------------------------------------
    def add_blocked_cube(self, cube: Cube, level: int) -> None:
        """Record that ``cube`` is blocked in frames 1..level (lemma ¬cube)."""
        if level < 1 or level > self.top_level:
            raise ValueError(f"lemma level {level} out of range 1..{self.top_level}")
        # Subsumption: drop weaker cubes made redundant by the new lemma.
        # The frozenset test rejects a shorter lemma on its size alone,
        # and a frame is only rebuilt when it loses a lemma.
        literal_set = cube.literal_set
        for frame_level in range(1, level + 1):
            frame = self.frames[frame_level]
            subsumed = [e for e in frame if literal_set <= e.literal_set]
            if not subsumed:
                continue
            for existing in subsumed:
                self.stats.subsumed_lemmas += 1
                self._note_subsumed(existing, frame_level)
            self.frames[frame_level] = [
                e for e in frame if not literal_set <= e.literal_set
            ]
        self.frames[level].append(cube)
        self._invalidate_witnesses(cube, level)
        self._install_lemma(cube, level)
        self.stats.lemmas_added += 1

    def promote_cube(self, cube: Cube, from_level: int, to_level: int) -> None:
        """Move a lemma up after a successful propagation push."""
        if cube in self.frames[from_level]:
            self.frames[from_level].remove(cube)
        self.frames[to_level].append(cube)
        self._invalidate_witnesses(cube, to_level)
        self._install_promotion(cube, from_level, to_level)
        self.stats.lemmas_pushed += 1

    def lemmas_exactly_at(self, level: int) -> List[Cube]:
        """Cubes whose lemma lives exactly at ``level`` (F_level \\ F_{level+1})."""
        if level < 0 or level > self.top_level:
            return []
        return list(self.frames[level])

    def lemmas_at_or_above(self, level: int) -> List[Cube]:
        """All cubes of the logical frame F_level."""
        result: List[Cube] = []
        for frame_level in range(max(level, 1), len(self.frames)):
            result.extend(self.frames[frame_level])
        return result

    def frame_clauses(self, level: int) -> List[Clause]:
        """The lemma clauses of the logical frame F_level."""
        return [cube.negate() for cube in self.lemmas_at_or_above(level)]

    def is_blocked_syntactically(self, cube: Cube, level: int) -> bool:
        """True if an existing lemma at level >= ``level`` already blocks ``cube``."""
        for frame_level in range(level, len(self.frames)):
            for blocked in self.frames[frame_level]:
                if blocked.literal_set <= cube.literal_set:
                    return True
        return False

    def frames_equal(self, level: int) -> bool:
        """True if F_level = F_{level+1}, i.e. no lemma lives exactly at level."""
        return not self.frames[level]

    # ------------------------------------------------------------------
    # Consecution witness store
    # ------------------------------------------------------------------
    def _record_witness(
        self, level: int, result: ConsecutionResult, refuted: Optional[Cube]
    ) -> None:
        """Keep the model of a failed ``consecution`` at ``level``, and
        remember it as the witness that refutes the cube ``refuted``."""
        if level < 1:
            return
        state, successor = result.predecessor, result.successor
        key = (state.literal_set, successor.literal_set)
        index = self._witness_keys.get(key)
        if index is None:
            index = len(self._witnesses)
            self._witness_keys[key] = index
            self._witnesses.append(result)
            bit = 1 << index
            for index_map, lits in (
                (self._state_index, state.literals),
                (self._successor_index, successor.literals),
            ):
                for lit in lits:
                    index_map[lit] = index_map.get(lit, 0) | bit
        if refuted is not None:
            self._refuted[refuted] = index
        # ``min_level := min(min_level, level)``.
        bit = 1 << index
        usable = self._usable
        for usable_level in range(level, len(usable)):
            usable[usable_level] |= bit

    def _matching_witnesses(self, index_map: Dict[int, int], cube: Cube) -> int:
        """Bitmask of the witnesses whose indexed cube contains ``cube``."""
        lits = cube.literals
        if not lits:
            return (1 << len(self._witnesses)) - 1
        mask = index_map.get(lits[0], 0)
        for lit in lits[1:]:
            if not mask:
                break
            mask &= index_map.get(lit, 0)
        return mask

    def _invalidate_witnesses(self, cube: Cube, level: int) -> None:
        """The lemma ``¬cube`` entered ``level``: it removes the pre-states
        it blocks from F_1..F_level (``min_level := max(min_level,
        level + 1)``)."""
        mask = self._matching_witnesses(self._state_index, cube)
        if mask:
            keep = ~mask
            usable = self._usable
            for usable_level in range(1, level + 1):
                usable[usable_level] &= keep

    def _refuting_witness(self, cube: Cube, usable: int) -> int:
        """Index of the newest witness in the bitmask ``usable`` with
        ``cube ⊆ t`` and ``cube ⊄ s``, or -1."""
        mask = self._matching_witnesses(self._successor_index, cube) & usable
        if mask:
            mask &= ~self._matching_witnesses(self._state_index, cube)
        return mask.bit_length() - 1

    def _stored_answer(self, index: int) -> ConsecutionResult:
        """Witness ``index`` as the answer of a failed consecution: the
        stored answer itself, shared with every query it answers."""
        return self._witnesses[index]

    def _reuse_witness(self, level: int, cube: Cube) -> Optional[ConsecutionResult]:
        """Answer ``consecution(level, cube)`` from a stored witness, or None.

        Takes the newest witness with ``min_level <= level``,
        ``cube ⊆ t`` and ``cube ⊄ s``; the class docstring says why it
        is a model of the query.
        """
        if level < 1:
            return None
        usable = self._usable[level]
        if not usable:
            return None
        index = self._refuting_witness(cube, usable)
        if index < 0:
            return None
        self.stats.consecution_reuses += 1
        self._refuted[cube] = index
        return self._stored_answer(index)

    def refuted_push(self, level: int, cube: Cube) -> int:
        """The witnesses usable at ``level`` if the witness of the last
        failed consecution of ``cube`` is among them, else 0.

        A non-zero answer means that pushing ``¬cube`` from ``level``
        fails, and the store would answer it (see the class docstring);
        it counts as that answer.  Pass the mask to
        :meth:`refuting_successor` for the answer's successor.
        """
        index = self._refuted.get(cube)
        if index is None:
            return 0
        usable = self._usable[level]
        if not usable >> index & 1:
            return 0
        self.stats.consecution_reuses += 1
        return usable

    def refuting_successor(self, cube: Cube, usable: int) -> Cube:
        """The successor ``t`` a store answer for ``cube`` returns when the
        usable witnesses are ``usable`` (a mask from :meth:`refuted_push`)."""
        index = self._refuting_witness(cube, usable)
        if index < 0:
            raise ValueError(f"no witness in the mask refutes pushing {cube}")
        return self._witnesses[index].successor

    # ------------------------------------------------------------------
    # Reading a query's answer
    # ------------------------------------------------------------------
    def _bad_state(self, solver: ArenaSolver) -> BadState:
        """The SAT answer of a bad-state query."""
        ts = self.ts
        return BadState(ts.state_cube(solver), ts, ts.input_bits(solver))

    def _failed_consecution(
        self, solver: ArenaSolver, predecessor: Cube
    ) -> ConsecutionResult:
        """The SAT answer of a consecution query, with its pre-state."""
        ts = self.ts
        return _FailedAnswer(predecessor, ts.successor_cube(solver), ts, ts.input_bits(solver))

    def _lift_target(self, successor: Optional[Cube]) -> List[int]:
        """The temporary clause of a lift query: ``¬successor'``, or
        ``¬Bad`` when ``successor`` is None."""
        if successor is None:
            return [-self.ts.bad_lit]
        return [-lit for lit in self.ts.primed_literals(successor)]

    @staticmethod
    def _lifted(solver: ArenaSolver, predecessor: Cube) -> Cube:
        """The literals of ``predecessor`` in the UNSAT core of a lift
        query, or the whole predecessor if the core keeps none."""
        core = set(solver.unsat_core())
        kept = tuple([lit for lit in predecessor.literals if lit in core])
        return Cube._from_canonical(kept) if kept else predecessor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def lemma_counts(self) -> List[int]:
        """Number of lemmas stored exactly at each level."""
        return [len(frame) for frame in self.frames]

    def solvers(self) -> List[ArenaSolver]:
        """The SAT solvers the substrate holds at this point of the run."""
        raise NotImplementedError

    def finalize_stats(self) -> None:
        """Fold the solvers' kernel counters into the run's :class:`IC3Stats`."""
        for solver in self.solvers():
            solver_stats = solver.stats
            self.stats.solver_conflicts += solver_stats.conflicts
            self.stats.solver_decisions += solver_stats.decisions
            self.stats.solver_propagations += solver_stats.propagations
            self.stats.watch_traversals += solver_stats.watch_traversals
            self.stats.blocker_hits += solver_stats.blocker_hits
            self.stats.literal_pool_bytes += solver_stats.literal_pool_bytes
            self.stats.arena_compactions += solver_stats.arena_compactions
            self.stats.solver_removed_clauses += (
                solver_stats.removed_clauses
                + solver_stats.guarded_clauses_freed
                + solver_stats.learnts_purged
            )
            self.stats.activation_vars_allocated += (
                solver_stats.activation_vars_allocated
            )
            self.stats.activation_vars_recycled += (
                solver_stats.activation_vars_recycled
            )
            self.stats.activation_vars_retired += (
                solver_stats.activation_vars_retired
            )

    def _trans_solver(self) -> ArenaSolver:
        """A fresh, seeded solver loaded with the transition relation T."""
        solver = ArenaSolver()
        solver.set_seed(self.options.seed)
        solver.ensure_var(self.ts.num_vars)
        for clause in self.ts.trans:
            solver.add_clause(clause)
        return solver

    # ------------------------------------------------------------------
    # Substrate hooks
    # ------------------------------------------------------------------
    def _open_frame(self, level: int) -> None:
        raise NotImplementedError

    def _install_lemma(self, cube: Cube, level: int) -> None:
        raise NotImplementedError

    def _install_promotion(self, cube: Cube, from_level: int, to_level: int) -> None:
        raise NotImplementedError

    def _note_subsumed(self, cube: Cube, frame_level: int) -> None:
        raise NotImplementedError

    # -- SAT queries ----------------------------------------------------
    def get_bad_state(self, level: int) -> Optional[BadState]:
        raise NotImplementedError

    def consecution(
        self, level: int, cube: Cube, reuse: bool = True
    ) -> ConsecutionResult:
        raise NotImplementedError

    def lift_predecessor(
        self, predecessor: Cube, inputs: Cube, successor: Optional[Cube] = None
    ) -> Cube:
        raise NotImplementedError


class MonolithicFrameManager(FrameManagerBase):
    """Frame management on a single persistent incremental solver.

    One :class:`~repro.sat.arena.ArenaSolver` holds the transition
    relation for the whole run.  Every frame ``i >= 1`` owns a persistent
    activation literal ``act_i``; the lemma ``¬c`` at level ``i`` becomes
    the single clause ``¬act_i ∨ ¬c`` and a query against the logical
    frame ``F_i`` assumes ``{act_top, …, act_i}`` and, for ``i >= 2``,
    ``¬act_{i-1}``.  The chain clauses ``act_{j-1} → act_j`` then force
    every lower activation false, so the lemma clauses below the query
    level are satisfied and take no part in propagation, as in a
    per-frame solver that never holds them.  Frame 0 is exactly
    the initial states and never receives lemmas, so its queries run in a
    small dedicated solver with the initial cube asserted as persistent
    unit clauses; lifting runs in a third.  Per-query
    clauses — the ``¬c`` of a consecution fallback, the ``¬t'`` or
    ``¬Bad`` of a lift — live in recyclable activation scopes that are
    released right after the query, so the solver never accumulates
    garbage from temporary clauses and no rebuild heuristic is needed.
    """

    def __init__(self, ts: TransitionSystem, options: IC3Options, stats: IC3Stats):
        super().__init__(ts, options, stats)
        self._solver = self._trans_solver()
        self._acts: List[int] = []

        # Frame 0 is exactly the initial states and never receives
        # lemmas, so it lives in its own small solver with the initial
        # cube as hard unit clauses: their unit-propagation closure then
        # persists at level 0 across every frame-0 query instead of being
        # replayed through an assumption each time.
        self._init_solver = self._trans_solver()
        for lit in ts.init_cube:
            self._init_solver.add_clause([lit])

        # Deferred promotion moves: when a lemma moves from level f to
        # level t its old clause (guarded by act_f) stays live, so the new
        # act_t copy is only *required* by queries at levels f < L <= t.
        # Batching the moves keeps the reusable assumption trail intact
        # across a whole propagation sweep.  ``_pending_cover[L]`` counts
        # the pending moves that a query at level L requires.
        self._pending_moves: List[tuple] = []  # (from_level, to_level, cube)
        self._pending_cover: List[int] = []
        self._pending_removals: List[frozenset] = []

        self._push_new_frame()

        # Lifting (of predecessors and bad states) runs against the bare
        # transition relation (no frame lemmas), so it gets its own small
        # solver: routing it through the main solver would flush the
        # reusable assumption trail between consecutive consecution queries.
        self._lift_solver = self._trans_solver()

        # One live clause per lemma: ``_lemma_handles`` maps a cube's
        # literal set to ``(coverage level, solver clause handle)``.  The
        # frame implication chain ``act_L -> act_{L+1}`` added per frame
        # makes a lemma's lower-coverage copy implied by a higher one, so
        # promotion and subsumption can physically *remove* clauses while
        # every learnt clause stays sound.  ``_lemma_copies`` counts how
        # many frames-list entries share the literal set (CTG blocking
        # can re-add a cube below an existing higher-level copy): the
        # physical clause is only deleted when the last copy dies.
        self._lemma_handles: Dict[frozenset, tuple] = {}
        self._lemma_copies: Dict[frozenset, int] = {}

    # ------------------------------------------------------------------
    # Substrate hooks
    # ------------------------------------------------------------------
    def _open_frame(self, level: int) -> None:
        self._pending_cover.append(0)
        # Frame 0 lives in ``_init_solver``; its slot in the act list is a
        # placeholder so that ``_acts[level]`` lines up with frame levels.
        if level == 0:
            self._acts.append(0)
            return
        act = self._solver.new_activation()
        self._acts.append(act)
        if level >= 2:
            # Frame implication chain: a query at level <= L-1 always
            # assumes act_L too, so act_{L-1} -> act_L encodes the
            # assumption discipline as a clause.  It never changes a
            # query's answer, but it makes a lemma's pre-promotion copy
            # implied by its promoted copy — which is what allows real
            # clause deletion below.
            self._solver.add_clause([-self._acts[level - 1], act])

    def _process_removals(self) -> None:
        """Physically delete the clauses of fully-subsumed lemmas."""
        if not self._pending_removals:
            return
        if self._pending_moves:
            removed = set(self._pending_removals)
            kept = []
            for move in self._pending_moves:
                if move[2].literal_set in removed:
                    self._cover(move[0], move[1], -1)
                else:
                    kept.append(move)
            self._pending_moves = kept
        for key in self._pending_removals:
            entry = self._lemma_handles.pop(key, None)
            if entry is not None and entry[1] is not None:
                self._remove_clause_at(entry[0], entry[1])
        self._pending_removals.clear()

    def _remove_clause_at(self, level: int, handle) -> None:
        self._solver.remove_guarded(self._acts[level], handle)
        self.stats.lemma_clauses_removed += 1

    def _install_clause(self, cube: Cube, level: int):
        _, handle = self._solver.add_guarded(self._acts[level], cube.negate().literals)
        self.stats.lemma_clauses_added += 1
        return handle

    def _install_lemma(self, cube: Cube, level: int) -> None:
        self._process_removals()
        key = cube.literal_set
        self._lemma_copies[key] = self._lemma_copies.get(key, 0) + 1
        existing = self._lemma_handles.get(key)
        if existing is not None and existing[0] >= level:
            # An identical lemma already lives with equal-or-higher
            # coverage; through the contiguous assumption suffix its
            # clause serves this placement too — nothing to add.
            self.stats.solver_clauses_shared += level
            return
        handle = self._install_clause(cube, level)
        if existing is not None and existing[1] is not None:
            # The old clause covered strictly less; it is implied by the
            # new copy through the frame chain, so delete it.
            self._remove_clause_at(existing[0], existing[1])
        self._lemma_handles[key] = (level, handle)
        # Frames 1..level-1 see the same physical clause through the
        # contiguous assumption range instead of getting their own copy.
        self.stats.solver_clauses_shared += max(level - 1, 0)

    def _install_promotion(self, cube: Cube, from_level: int, to_level: int) -> None:
        self._pending_moves.append((from_level, to_level, cube))
        self._cover(from_level, to_level, 1)
        self.stats.solver_clauses_shared += max(to_level - from_level - 1, 0)

    def _cover(self, from_level: int, to_level: int, delta: int) -> None:
        """Count a pending move in (or out of) the levels that require it."""
        cover = self._pending_cover
        for level in range(from_level + 1, to_level + 1):
            cover[level] += delta

    def _flush_pending(self, level: int) -> None:
        """Apply deferred promotion moves once a query needs one of them.

        A pending move is required when the query level lies strictly
        above the promotion source (the old copy no longer applies) and
        at or below its target.  Applying a move flushes the solver
        trail, so once one is needed the whole batch goes through: each
        lemma's old clause is removed (it is implied by the new copy via
        the frame chain) and the new copy installed in its place.
        """
        if not self._pending_cover[level]:
            return
        for _, to_level, cube in self._pending_moves:
            key = cube.literal_set
            old = self._lemma_handles.get(key)
            if old is None or old[0] >= to_level:
                # The lemma was fully removed meanwhile, or another copy
                # already covers the promotion target.
                continue
            new_handle = self._install_clause(cube, to_level)
            if old[1] is not None:
                self._remove_clause_at(old[0], old[1])
            self._lemma_handles[key] = (to_level, new_handle)
        self._pending_moves.clear()
        self._pending_cover = [0] * len(self._pending_cover)

    def _note_subsumed(self, cube: Cube, frame_level: int) -> None:
        # Queue the subsumed lemma's clause for physical removal once no
        # frames-list entry shares its literal set anymore; it is implied
        # by the subsuming lemma (a sub-clause at a level at least as
        # high, reachable through the frame chain), so deletion is sound
        # once the subsuming clause is installed.
        key = cube.literal_set
        remaining = self._lemma_copies.get(key, 1) - 1
        if remaining <= 0:
            self._lemma_copies.pop(key, None)
            self._pending_removals.append(key)
        else:
            self._lemma_copies[key] = remaining

    # ------------------------------------------------------------------
    # SAT queries
    # ------------------------------------------------------------------
    def _frame_assumptions(self, level: int) -> List[int]:
        """Activation literals selecting the logical frame F_level.

        ``act_top … act_level``, ordered from the top frame downwards:
        successive queries at nearby levels then share an assumption-list
        prefix, which the solver's trail reuse turns into skipped
        re-propagation of the whole active lemma set.  For ``level >= 2``
        the list ends with ``¬act_{level-1}``: through the frame chain it
        switches off every lower frame, whose lemma clauses would
        otherwise stay unresolved and keep propagating.  It changes no
        answer, since F_level does not contain those lemmas.
        """
        if level == 0:
            return []  # frame 0 queries run in the dedicated init solver
        acts = self._acts
        assumptions = acts[len(acts) - 1:level - 1:-1]
        if level >= 2:
            assumptions.append(-acts[level - 1])
        return assumptions

    def _query_solver(self, level: int) -> ArenaSolver:
        return self._init_solver if level == 0 else self._solver

    def get_bad_state(self, level: int) -> Optional[BadState]:
        """Return a state of F_level that can reach Bad combinationally."""
        self._flush_pending(level)
        solver = self._query_solver(level)
        start = time.perf_counter()
        satisfiable = solver.solve(
            self._frame_assumptions(level) + [self.ts.bad_lit]
        )
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        if not satisfiable:
            return None
        self.stats.bad_cubes += 1
        return self._bad_state(solver)

    def consecution(
        self, level: int, cube: Cube, reuse: bool = True
    ) -> ConsecutionResult:
        """Check whether ``¬cube`` is inductive relative to ``F_level``.

        With ``reuse`` a stored witness answers the query first when one
        applies (see :class:`FrameManagerBase`).  Otherwise the query
        ``SAT?(F_level ∧ ¬cube ∧ T ∧ cube')`` runs.  When it is
        UNSAT the lemma ``¬cube`` may be added at ``level + 1``; the
        assumption core is translated back into a sub-cube to accelerate
        generalization.  When it is SAT the model yields the predecessor
        ``s``, the inputs, and the successor ``t`` — the latter is exactly
        the counterexample-to-propagation state used by lemma prediction.

        The ``¬cube`` conjunct is handled lazily: the query first runs
        without it (clause-free, so the reusable assumption trail stays
        intact); only when the model's predecessor happens to lie inside
        ``cube`` — a self-loop, which the relaxed query cannot rule out —
        is the blocking clause added in a temporary scope and the exact
        query re-run.  UNSAT answers of the relaxed query are always
        answers of the exact one (it has strictly more models).
        """
        reused = self._reuse_witness(level, cube) if reuse else None
        if reused is not None:
            return reused
        self._flush_pending(level)
        solver = self._query_solver(level)
        primed_cube = self.ts.primed_literals(cube)
        assumptions = self._frame_assumptions(level) + primed_cube

        start = time.perf_counter()
        satisfiable = solver.solve(assumptions)
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        self.stats.consecution_calls += 1

        scope: Optional[int] = None
        if satisfiable:
            predecessor = self.ts.state_cube(solver)
            if cube.literal_set <= predecessor.literal_set:
                # Rare fallback: exclude cube itself and ask again.
                self.stats.consecution_fallbacks += 1
                scope = solver.new_activation()
                solver.add_guarded(scope, [-lit for lit in cube])
                start = time.perf_counter()
                satisfiable = solver.solve([scope] + assumptions)
                self.stats.sat_time += time.perf_counter() - start
                self.stats.sat_calls += 1
                if satisfiable:
                    predecessor = self.ts.state_cube(solver)

        if satisfiable:
            result = self._failed_consecution(solver, predecessor)
            self._record_witness(level, result, cube if reuse else None)
        else:
            result = _HeldAnswer(cube, primed_cube, solver.unsat_core())

        if scope is not None:
            solver.release(scope)
        return result

    def lift_predecessor(
        self, predecessor: Cube, inputs: Cube, successor: Optional[Cube] = None
    ) -> Cube:
        """Shrink a concrete state with an assumption core.

        ``predecessor ∧ inputs ∧ T ⇒ successor'`` holds by construction, so
        the query ``predecessor ∧ inputs ∧ T ∧ ¬successor'`` is UNSAT and
        the core restricted to the predecessor literals is a generalized
        predecessor cube.  With ``successor`` None the state is a bad
        state and is lifted against the property instead:
        ``predecessor ∧ inputs ∧ T ∧ ¬Bad`` is UNSAT, and on a model
        without invariant constraints every state of the core cube asserts
        Bad under ``inputs``.  The query uses no frame lemmas, so it runs
        in the dedicated lift solver against the bare transition relation.
        """
        solver = self._lift_solver
        scope = solver.new_activation()
        solver.add_guarded(scope, self._lift_target(successor))
        assumptions = [scope, *predecessor.literals, *inputs.literals]

        start = time.perf_counter()
        satisfiable = solver.solve(assumptions)
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        self.stats.lifting_calls += 1

        # A SAT answer should not happen; keep the unshrunk predecessor.
        lifted = predecessor if satisfiable else self._lifted(solver, predecessor)
        solver.release(scope)
        return lifted

    # ------------------------------------------------------------------
    def solvers(self) -> List[ArenaSolver]:
        return [self._solver, self._lift_solver, self._init_solver]

    def finalize_stats(self) -> None:
        super().finalize_stats()
        self.stats.assumption_levels_reused = (
            self._solver.stats.assumption_levels_reused
        )


class PerFrameFrameManager(FrameManagerBase):
    """One solver per frame: the reference for :class:`MonolithicFrameManager`.

    Each frame has its own incremental SAT solver loaded with the
    transition relation and the frame's lemmas (the IC3ref architecture);
    lemma clauses are copied into every covered frame and temporary
    clauses use activation literals that are tombstoned with a unit
    clause.  Subsumed lemmas and tombstones stay in the solvers.

    The engine never builds it: the monolithic substrate was faster end to
    end on every workload measured.  The tests run IC3 on both substrates
    and compare their answers, as the object ``Solver`` checks
    ``ArenaSolver``; that is its only use.  It can be deleted once
    ``perfbench/layers.py`` no longer wraps its three queries by name.
    """

    def __init__(self, ts: TransitionSystem, options: IC3Options, stats: IC3Stats):
        super().__init__(ts, options, stats)
        self._solvers: List[ArenaSolver] = []

        # Frame 0 holds the initial states.
        self._push_new_frame()

        self._lift_solver = self._trans_solver()

    # ------------------------------------------------------------------
    # Substrate hooks
    # ------------------------------------------------------------------
    def _open_frame(self, level: int) -> None:
        solver = self._trans_solver()
        if level == 0:
            for lit in self.ts.init_cube:
                solver.add_clause([lit])
        # At creation time no lemma lives above the new frame, so there
        # is nothing else to add.
        self._solvers.append(solver)

    def _install_lemma(self, cube: Cube, level: int) -> None:
        clause = cube.negate().literals
        for frame_level in range(1, level + 1):
            self._solvers[frame_level].add_clause(clause)
        self.stats.lemma_clauses_added += level

    def _install_promotion(self, cube: Cube, from_level: int, to_level: int) -> None:
        clause = cube.negate().literals
        for frame_level in range(from_level + 1, to_level + 1):
            self._solvers[frame_level].add_clause(clause)
        self.stats.lemma_clauses_added += to_level - from_level

    def _note_subsumed(self, cube: Cube, frame_level: int) -> None:
        # The dropped lemma's clauses stay in the solvers of every frame it
        # covered: the subsuming lemma implies them.
        pass

    # ------------------------------------------------------------------
    def solvers(self) -> List[ArenaSolver]:
        return self._solvers + [self._lift_solver]

    # ------------------------------------------------------------------
    # SAT queries
    # ------------------------------------------------------------------
    def get_bad_state(self, level: int) -> Optional[BadState]:
        """Return a state of F_level that can reach Bad combinationally."""
        solver = self._solvers[level]
        start = time.perf_counter()
        satisfiable = solver.solve([self.ts.bad_lit])
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        if not satisfiable:
            return None
        self.stats.bad_cubes += 1
        return self._bad_state(solver)

    def consecution(
        self, level: int, cube: Cube, reuse: bool = True
    ) -> ConsecutionResult:
        """Check whether ``¬cube`` is inductive relative to ``F_level``
        (with ``reuse``, answered from a stored witness when one applies)."""
        reused = self._reuse_witness(level, cube) if reuse else None
        if reused is not None:
            return reused
        solver = self._solvers[level]
        activation = solver.new_var()
        solver.add_clause([-activation] + [-lit for lit in cube])
        primed_cube = self.ts.primed_literals(cube)
        assumptions = [activation] + primed_cube

        start = time.perf_counter()
        satisfiable = solver.solve(assumptions)
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        self.stats.consecution_calls += 1

        if satisfiable:
            result = self._failed_consecution(solver, self.ts.state_cube(solver))
            self._record_witness(level, result, cube if reuse else None)
        else:
            result = _HeldAnswer(cube, primed_cube, solver.unsat_core())

        solver.add_clause([-activation])
        return result

    def lift_predecessor(
        self, predecessor: Cube, inputs: Cube, successor: Optional[Cube] = None
    ) -> Cube:
        """Shrink a concrete predecessor, or with ``successor`` None a bad
        state, with an assumption core."""
        solver = self._lift_solver
        activation = solver.new_var()
        solver.add_clause([-activation] + self._lift_target(successor))
        assumptions = [activation, *predecessor.literals, *inputs.literals]

        start = time.perf_counter()
        satisfiable = solver.solve(assumptions)
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        self.stats.lifting_calls += 1

        # A SAT answer should not happen; keep the unshrunk predecessor.
        lifted = predecessor if satisfiable else self._lifted(solver, predecessor)
        solver.add_clause([-activation])
        return lifted
