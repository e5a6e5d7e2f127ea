"""Flat-arena CDCL solver: the production SAT kernel of every engine.

:class:`ArenaSolver` implements the same external interface as
:class:`repro.sat.solver.Solver` — DIMACS-literal clauses, assumptions,
models, assumption cores, and the full activation-literal layer
(``new_activation`` / ``add_guarded`` / ``remove_guarded`` / ``release``
with learnt purging and assumption-trail reuse) — but stores the clause
database in flat integer arenas instead of per-clause Python objects:

* **Literal pool** — one flat integer sequence holding every clause
  back to back.  A clause is addressed by an integer *clause ref* (its
  offset in the pool) and occupies ``size + 2`` words: a packed header
  word ``(size << 3) | (learnt << 1) | deleted``, an activity-slot
  index (``-1`` for problem clauses), then the literals.  The pool is a
  plain list: CPython indexes lists measurably faster than
  ``array('i')``, which re-boxes every read.
* **Encoded literals** — literal ``l`` is stored as
  ``(|l| << 1) | (l < 0)``, so the negation is ``enc ^ 1`` and a
  literal's truth value is a single indexed load from ``_values``
  (``1`` true, ``-1`` false, ``0`` unassigned) with no sign branch.
* **Watch lists** — two parallel flat integer lists per literal:
  ``_watch_crefs[enc]`` (clause refs) and ``_watch_blockers[enc]``
  (blocking literals), replacing the list-of-``[clause, blocker]``
  pairs of the object solver.
* **Assignment state** — values, levels, reasons (clause refs, ``-1``
  for decisions), saved phases and seen marks live in preallocated
  flat arrays indexed by variable or encoded literal.

Deleted clauses only flip the header bit; their watchers are dropped
lazily by propagation, and the pool is compacted (with every clause ref
remapped — watch lists, reasons, learnt lists, activation indexes and
the :class:`ArenaClauseRef` handles held by callers) once enough dead
words accumulate, but only at decision level 0 so no trail state can
point into freed storage.

The object-based :class:`repro.sat.solver.Solver` is the reference
oracle the randomized differential tests compare this kernel against.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.cube import Cube
from repro.obs.tracer import get_tracer
from repro.sat.exceptions import ResourceBudgetExceeded, SolverError
from repro.sat.luby import luby
from repro.sat.solver import SolverStats

# Header layout: bit 0 = deleted, bit 1 = learnt, bits 3.. = size.
_DELETED = 1
_LEARNT = 2
_SIZE_SHIFT = 3

_NO_REASON = -1

# Bytes per pool word: a list slot is one 8-byte object pointer.
_POOL_WORD_BYTES = 8


class ArenaClauseRef:
    """Stable handle for a guarded clause stored in the arena.

    The underlying clause ref changes when the pool is compacted; the
    solver remaps every live handle in place, so callers can hold on to
    the object across compactions exactly like a ``SolverClause``.
    """

    __slots__ = ("cref",)

    def __init__(self, cref: int):
        self.cref = cref

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaClauseRef({self.cref})"


def _encode(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _decode(enc: int) -> int:
    return -(enc >> 1) if enc & 1 else (enc >> 1)


class ArenaSolver:
    """Incremental CDCL SAT solver over flat integer arenas."""

    def __init__(
        self,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        restart_base: int = 100,
        max_learnt_factor: float = 1.0 / 3.0,
        learnt_growth: float = 1.1,
    ):
        if not 0.0 < var_decay <= 1.0:
            raise SolverError(f"var_decay must be in (0, 1], got {var_decay}")
        if not 0.0 < clause_decay <= 1.0:
            raise SolverError(f"clause_decay must be in (0, 1], got {clause_decay}")
        self._var_decay = var_decay
        self._clause_decay = clause_decay
        self._restart_base = restart_base
        self._max_learnt_factor = max_learnt_factor
        self._learnt_growth = learnt_growth

        self._num_vars = 0
        # Indexed by encoded literal (slots 0/1 unused).
        self._values: List[int] = [0, 0]
        self._watch_crefs: List[List[int]] = [[], []]
        self._watch_blockers: List[List[int]] = [[], []]
        # Indexed by variable (slot 0 unused).
        self._level: List[int] = [0]
        self._reason: List[int] = [_NO_REASON]
        self._phase = bytearray(1)       # 1 = saved phase is negative
        self._branchable = bytearray(1)
        self._activity: List[float] = [0.0]
        self._seen = bytearray(1)

        # Clause arena.
        self._pool: List[int] = []
        self._dead_words = 0
        self._num_problem = 0
        self._learnts: List[int] = []
        self._cla_act: List[float] = []
        self._cla_free: List[int] = []

        self._trail: List[int] = []      # encoded literals
        self._trail_lim: List[int] = []
        self._qhead = 0

        # VSIDS decision order as a *lazy* C-implemented binary heap of
        # ``(-activity, var)`` entries: bumping an in-heap variable
        # pushes a fresh entry instead of sifting, and pops skip entries
        # whose key no longer matches ``_heap_key[var]`` (the key of the
        # variable's single live entry, or None when it left the heap).
        self._heap: List[Tuple[float, int]] = []
        self._heap_key: List[Optional[float]] = [None]
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._max_learnts = 1000.0

        self._ok = True
        self._model: Optional[List[int]] = None
        self._conflict_core: Optional[List[int]] = None
        self._assumptions: List[int] = []  # encoded
        self._rng = None

        # Activation-literal machinery (see Solver.new_activation).
        self._act_groups: Dict[int, List[ArenaClauseRef]] = {}
        self._act_learnts: Dict[int, List[int]] = {}
        self._act_free: List[int] = []
        self._act_retired: Set[int] = set()

        self.stats = SolverStats()

    # ------------------------------------------------------------------
    # Variable and clause creation
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of live problem (non-learnt) clauses."""
        return self._num_problem

    @property
    def num_learnts(self) -> int:
        """Number of learnt clauses currently kept."""
        return len(self._learnts)

    def new_var(self) -> int:
        """Create a fresh variable and return its index."""
        self._num_vars += 1
        var = self._num_vars
        self._values.extend((0, 0))
        self._watch_crefs.extend(([], []))
        self._watch_blockers.extend(([], []))
        self._level.append(0)
        self._reason.append(_NO_REASON)
        self._phase.append(1)
        self._branchable.append(1)
        self._activity.append(0.0)
        self._seen.append(0)
        self._heap_key.append(-0.0)
        heappush(self._heap, (-0.0, var))
        return var

    def ensure_var(self, var: int) -> None:
        """Make sure variable ``var`` (and all below it) exists."""
        if var <= 0:
            raise SolverError(f"variable index must be positive, got {var}")
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause.

        Returns False if the solver becomes (or already was) trivially
        unsatisfiable at decision level 0, True otherwise.
        """
        ok, _ = self._add_clause_internal(literals)
        return ok

    def _add_clause_internal(
        self, literals: Iterable[int]
    ) -> Tuple[bool, Optional[int]]:
        """Add a problem clause and return (ok, clause ref or None).

        The ref is None when the clause was simplified away (tautology,
        already satisfied, or reduced to a unit enqueued at level 0).
        """
        if self._trail_lim:
            # Mutating the clause database invalidates the reusable
            # assumption trail kept between solve calls; flush it.
            self._cancel_until(0)
        self._maybe_compact()
        if not self._ok:
            return False, None

        lits = sorted({int(l) for l in literals}, key=abs)
        if any(l == 0 for l in lits):
            raise SolverError("0 is not a valid literal")
        for lit in lits:
            self.ensure_var(abs(lit))

        # Simplify: drop tautologies and literals already false at level 0.
        values = self._values
        lit_set = set(lits)
        simplified: List[int] = []
        for lit in lits:
            if -lit in lit_set:
                return True, None  # tautology, trivially satisfied
            enc = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            value = values[enc]
            if value > 0:
                return True, None  # already satisfied at level 0
            if value < 0:
                continue
            simplified.append(enc)

        if not simplified:
            self._ok = False
            return False, None
        if len(simplified) == 1:
            self._unchecked_enqueue(simplified[0], _NO_REASON)
            self._ok = self._propagate() < 0
            return self._ok, None

        cref = self._alloc_clause(simplified, learnt=False)
        self._attach(cref)
        return True, cref

    def add_cube_as_units(self, cube: Cube) -> bool:
        """Add each literal of a cube as a unit clause."""
        for lit in cube:
            if not self.add_clause([lit]):
                return False
        return True

    # ------------------------------------------------------------------
    # Removable clauses guarded by activation literals
    # ------------------------------------------------------------------
    def new_activation(self) -> int:
        """Allocate an activation variable guarding a group of clauses.

        Same contract as :meth:`Solver.new_activation`: recycling is
        sound because activation literals are never dropped by clause
        minimisation and dependent learnts are purged on release.
        """
        if self._act_free:
            act = self._act_free.pop()
            self.stats.activation_vars_recycled += 1
        else:
            act = self.new_var()
            self.stats.activation_vars_allocated += 1
            # Fixed false default phase, never branched on (see Solver).
            self._branchable[act] = 0
        if self._values[act << 1] != 0 and self._trail_lim:
            # A recycled variable may carry a stale search decision from
            # the reusable trail; flush before handing it out again.
            self._cancel_until(0)
        self._act_groups[act] = []
        self._act_learnts[act] = []
        return act

    def add_guarded(
        self, act: int, literals: Iterable[int]
    ) -> Tuple[bool, Optional[ArenaClauseRef]]:
        """Add ``(-act OR literals)`` to the group guarded by ``act``.

        Returns ``(ok, handle)``; the handle identifies the stored clause
        for a later :meth:`remove_guarded` (None when the clause was
        simplified away).
        """
        group = self._act_groups.get(act)
        if group is None:
            raise SolverError(f"{act} is not an active activation variable")
        if self._trail_lim:
            # Try to attach without flushing the reusable trail: exact as
            # long as the clause has two non-false literals to watch.
            attached, cref = self._attach_live([-act] + [int(l) for l in literals])
            if attached:
                handle = None
                if cref is not None:
                    handle = ArenaClauseRef(cref)
                    group.append(handle)
                self.stats.guarded_clauses_added += 1
                return True, handle
        ok, cref = self._add_clause_internal([-act] + [int(l) for l in literals])
        handle = None
        if cref is not None:
            handle = ArenaClauseRef(cref)
            group.append(handle)
        self.stats.guarded_clauses_added += 1
        return ok, handle

    def _attach_live(
        self, literals: Iterable[int]
    ) -> Tuple[bool, Optional[int]]:
        """Attach a clause mid-search without cancelling the trail.

        Only level-0 assignments are used for simplification; the clause
        is stored watching two literals that are currently non-false, so
        every watch invariant holds on the live trail.  Returns
        ``(False, None)`` when the clause is unit or conflicting under
        the current assignment — the caller then falls back to the
        flushing path.
        """
        lits = sorted({int(l) for l in literals}, key=abs)
        if any(l == 0 for l in lits):
            raise SolverError("0 is not a valid literal")
        for lit in lits:
            self.ensure_var(abs(lit))
        values = self._values
        level = self._level
        lit_set = set(lits)
        simplified: List[int] = []
        for lit in lits:
            if -lit in lit_set:
                return True, None  # tautology
            enc = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            value = values[enc]
            if value != 0 and level[enc >> 1] == 0:
                if value > 0:
                    return True, None  # satisfied at level 0
                continue  # false at level 0: drop
            simplified.append(enc)
        if len(simplified) < 2:
            return False, None
        non_false = [enc for enc in simplified if values[enc] >= 0]
        if len(non_false) < 2:
            return False, None
        watch_a, watch_b = non_false[0], non_false[1]
        rest = [e for e in simplified if e != watch_a and e != watch_b]
        cref = self._alloc_clause([watch_a, watch_b] + rest, learnt=False)
        self._attach(cref)
        return True, cref

    def remove_guarded(self, act: int, clause: ArenaClauseRef) -> None:
        """Remove one clause from an activation group.

        Same contract as :meth:`Solver.remove_guarded`: the caller must
        guarantee the clause is implied by the remaining database.  The
        removal is a lazy-deletion mark; propagation drops the stale
        watchers on its next visit.
        """
        group = self._act_groups.get(act)
        if group is None:
            raise SolverError(f"{act} is not an active activation variable")
        if not isinstance(clause, ArenaClauseRef):
            raise SolverError("clause does not belong to the given activation group")
        if self._pool[clause.cref] & _DELETED:
            return
        try:
            group.remove(clause)
        except ValueError:
            raise SolverError("clause does not belong to the given activation group")
        self._delete_clause(clause.cref)
        self.stats.guarded_clauses_freed += 1

    def release(self, act: int) -> None:
        """Remove the clause group of ``act`` and recycle the variable.

        Deletes the guarded clauses, purges every learnt clause whose
        derivation could depend on them (all mention ``-act``), and
        either returns the variable to the free list or — when unit
        propagation fixed it at level 0 — retires it permanently.
        """
        if self._trail_lim:
            # Clauses above level 0 may act as reasons on the reusable
            # trail; flush it before deleting anything.
            self._cancel_until(0)
        group = self._act_groups.pop(act, None)
        if group is None:
            raise SolverError(f"{act} is not an active activation variable")
        for handle in group:
            if self._delete_clause(handle.cref):
                self.stats.guarded_clauses_freed += 1

        dependent = self._act_learnts.pop(act)
        purged = 0
        for cref in dependent:
            if self._delete_clause(cref):
                purged += 1
        if purged:
            pool = self._pool
            self._learnts = [c for c in self._learnts if not pool[c] & _DELETED]
            self.stats.learnts_purged += purged

        if self._values[act << 1] != 0:
            # Propagation fixed the variable at level 0 (always to false);
            # the assignment outlives the group, so never reuse the var.
            self._act_retired.add(act)
            self.stats.activation_vars_retired += 1
        else:
            self._act_free.append(act)
        self._maybe_compact()

    def is_activation(self, var: int) -> bool:
        """True if ``var`` currently guards a removable clause group."""
        return var in self._act_groups

    @property
    def num_active_activations(self) -> int:
        """Number of live activation groups."""
        return len(self._act_groups)

    @property
    def num_retired_activations(self) -> int:
        """Activation variables permanently lost to level-0 assignments."""
        return len(self._act_retired)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
    ) -> bool:
        """Solve under assumptions; returns True (SAT) or False (UNSAT).

        Raises :class:`ResourceBudgetExceeded` if ``conflict_budget``
        conflicts were reached before a verdict.
        """
        result = self.solve_limited(assumptions, conflict_budget)
        if result is None:
            raise ResourceBudgetExceeded(
                f"conflict budget of {conflict_budget} exhausted"
            )
        return result

    def solve_limited(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
    ) -> Optional[bool]:
        """Like :meth:`solve`, but returns None when the budget is exhausted."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_limited(assumptions, conflict_budget)
        with tracer.span(
            "sat.solve", cat="sat", backend="arena", assumptions=len(assumptions)
        ) as span:
            conflicts_before = self.stats.conflicts
            propagations_before = self.stats.propagations
            result = self._solve_limited(assumptions, conflict_budget)
            span.add(
                result={True: "sat", False: "unsat"}.get(result, "budget"),
                conflicts=self.stats.conflicts - conflicts_before,
                propagations=self.stats.propagations - propagations_before,
            )
        tracer.sample("sat.conflicts", self.stats.conflicts, cat="sat")
        tracer.sample("sat.propagations", self.stats.propagations, cat="sat")
        return result

    def _solve_limited(
        self,
        assumptions: Sequence[int],
        conflict_budget: Optional[int],
    ) -> Optional[bool]:
        self.stats.solve_calls += 1
        self._model = None
        self._conflict_core = None
        if not self._ok:
            self._cancel_until(0)
            self._conflict_core = []
            return False

        new_assumptions: List[int] = []
        for lit in assumptions:
            lit = int(lit)
            if lit == 0:
                raise SolverError("0 is not a valid assumption literal")
            self.ensure_var(abs(lit))
            new_assumptions.append(
                (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            )

        # Assumption-trail reuse (see Solver.solve_limited): keep the
        # decision levels of the shared assumption prefix alive.
        limit = min(
            len(new_assumptions), len(self._assumptions), len(self._trail_lim)
        )
        keep = 0
        while keep < limit and new_assumptions[keep] == self._assumptions[keep]:
            keep += 1
        self._cancel_until(keep)
        self.stats.assumption_levels_reused += keep
        self._assumptions = new_assumptions

        self._max_learnts = max(
            1000.0, self._num_problem * self._max_learnt_factor
        )
        if len(self._heap) > 3 * self._num_vars + 64:
            # Shed stale lazy-heap entries left behind by activity bumps.
            heap_key = self._heap_key
            kept = set()
            heap = [
                (key, var)
                for key, var in self._heap
                if heap_key[var] == key and not (var in kept or kept.add(var))
            ]
            heapify(heap)
            self._heap = heap
        budget_left = conflict_budget
        restart_round = 0
        status: Optional[bool] = None
        while status is None:
            restart_limit = self._restart_base * luby(restart_round)
            if budget_left is not None:
                if budget_left <= 0:
                    break
                restart_limit = min(restart_limit, budget_left)
            before = self.stats.conflicts
            status = self._search(restart_limit)
            used = self.stats.conflicts - before
            if budget_left is not None:
                budget_left -= used
            restart_round += 1
            self._max_learnts *= self._learnt_growth

        if status is None:
            self._cancel_until(0)
        return status

    def get_model(self) -> Dict[int, bool]:
        """Return the last model as a ``var -> bool`` mapping."""
        if self._model is None:
            raise SolverError("no model available (last call was not SAT)")
        model = {}
        values = self._model
        for var in range(1, len(values) >> 1):
            value = values[var << 1]
            if value != 0:
                model[var] = value > 0
        return model

    def model_value(self, lit: int) -> Optional[bool]:
        """Value of a literal in the last model (None if unassigned)."""
        if self._model is None:
            raise SolverError("no model available (last call was not SAT)")
        var = abs(lit)
        if (var << 1) >= len(self._model):
            return None
        value = self._model[var << 1]
        if value == 0:
            return None
        return (value > 0) == (lit > 0)

    def model_cube(self, variables: Iterable[int]) -> Cube:
        """Project the last model onto a cube over the given variables."""
        literals = []
        for var in variables:
            value = self.model_value(var)
            if value is None:
                # Unconstrained variable: pick the saved phase arbitrarily.
                value = False
            literals.append(var if value else -var)
        return Cube(literals)

    def unsat_core(self) -> List[int]:
        """Subset of the assumptions responsible for the last UNSAT answer."""
        if self._conflict_core is None:
            raise SolverError("no unsat core available (last call was not UNSAT)")
        return list(self._conflict_core)

    def is_consistent(self) -> bool:
        """False once the clause set is unsatisfiable at level 0."""
        return self._ok

    # ------------------------------------------------------------------
    # Arena management
    # ------------------------------------------------------------------
    def _alloc_clause(self, enc_lits: List[int], learnt: bool) -> int:
        pool = self._pool
        cref = len(pool)
        if learnt:
            if self._cla_free:
                slot = self._cla_free.pop()
                self._cla_act[slot] = 0.0
            else:
                slot = len(self._cla_act)
                self._cla_act.append(0.0)
            pool.append((len(enc_lits) << _SIZE_SHIFT) | _LEARNT)
        else:
            slot = -1
            pool.append(len(enc_lits) << _SIZE_SHIFT)
            self._num_problem += 1
        pool.append(slot)
        pool.extend(enc_lits)
        self.stats.literal_pool_bytes = len(pool) * _POOL_WORD_BYTES
        return cref

    def _delete_clause(self, cref: int) -> bool:
        """Mark a clause deleted; returns False if it already was."""
        pool = self._pool
        header = pool[cref]
        if header & _DELETED:
            return False
        pool[cref] = header | _DELETED
        self._dead_words += (header >> _SIZE_SHIFT) + 2
        if header & _LEARNT:
            self._cla_free.append(pool[cref + 1])
        else:
            self._num_problem -= 1
        return True

    def _attach(self, cref: int) -> None:
        pool = self._pool
        a = pool[cref + 2]
        b = pool[cref + 3]
        # Binary clauses are watched as ``-(cref + 1)``: propagation can
        # then resolve the whole clause from the blocker value alone,
        # without ever touching the pool.
        tag = -1 - cref if pool[cref] >> _SIZE_SHIFT == 2 else cref
        self._watch_crefs[a].append(tag)
        self._watch_blockers[a].append(b)
        self._watch_crefs[b].append(tag)
        self._watch_blockers[b].append(a)

    def _maybe_compact(self) -> None:
        if self._trail_lim:
            return
        if self._dead_words < 2048 or self._dead_words * 2 < len(self._pool):
            return
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "sat.compact",
                cat="sat",
                backend="arena",
                pool_words=len(self._pool),
                dead_words=self._dead_words,
            ):
                self._compact()
        else:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the pool without dead clauses, remapping every ref.

        Only called at decision level 0: reasons for level-0 assignments
        may be remapped (or dropped when their clause is dead — analysis
        never dereferences level-0 reasons), and watch lists are rebuilt
        from watched positions 0/1, which preserves the watch invariant
        because every kept clause keeps its watched literals.
        """
        old = self._pool
        new: List[int] = []
        remap: Dict[int, int] = {}
        i = 0
        n = len(old)
        while i < n:
            header = old[i]
            nxt = i + 2 + (header >> _SIZE_SHIFT)
            if not header & _DELETED:
                remap[i] = len(new)
                new.extend(old[i:nxt])
            i = nxt
        self._pool = new
        self._dead_words = 0

        watch_crefs = self._watch_crefs
        watch_blockers = self._watch_blockers
        for enc in range(2, len(watch_crefs)):
            wc = watch_crefs[enc]
            if not wc:
                continue
            wb = watch_blockers[enc]
            write = 0
            for read in range(len(wc)):
                tag = wc[read]
                if tag < 0:
                    mapped = remap.get(-1 - tag, -1)
                    if mapped >= 0:
                        wc[write] = -1 - mapped
                        wb[write] = wb[read]
                        write += 1
                else:
                    mapped = remap.get(tag, -1)
                    if mapped >= 0:
                        wc[write] = mapped
                        wb[write] = wb[read]
                        write += 1
            del wc[write:]
            del wb[write:]

        reason = self._reason
        for var in range(1, self._num_vars + 1):
            cref = reason[var]
            if cref >= 0:
                reason[var] = remap.get(cref, _NO_REASON)

        self._learnts = [remap[c] for c in self._learnts if c in remap]
        for group in self._act_groups.values():
            for handle in group:
                handle.cref = remap[handle.cref]
        for act, dependents in self._act_learnts.items():
            self._act_learnts[act] = [remap[c] for c in dependents if c in remap]

        self.stats.arena_compactions += 1
        self.stats.literal_pool_bytes = len(new) * _POOL_WORD_BYTES

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))
        depth = len(self._trail_lim)
        if depth > self.stats.max_decision_level:
            self.stats.max_decision_level = depth

    def _unchecked_enqueue(self, enc_lit: int, reason_cref: int) -> None:
        values = self._values
        values[enc_lit] = 1
        values[enc_lit ^ 1] = -1
        var = enc_lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_cref
        self._trail.append(enc_lit)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        boundary = self._trail_lim[level]
        trail = self._trail
        values = self._values
        reason = self._reason
        phase = self._phase
        branchable = self._branchable
        activity = self._activity
        heap = self._heap
        heap_key = self._heap_key
        push = heappush
        for i in range(len(trail) - 1, boundary - 1, -1):
            enc = trail[i]
            var = enc >> 1
            if branchable[var]:
                # Activation variables keep their fixed false phase and
                # never (re-)enter the decision heap (see Solver).
                phase[var] = enc & 1
                if heap_key[var] is None:
                    key = -activity[var]
                    heap_key[var] = key
                    push(heap, (key, var))
            values[enc] = 0
            values[enc ^ 1] = 0
            reason[var] = _NO_REASON
        del trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = len(trail)

    def _propagate(self) -> int:
        """Unit propagation; returns the conflicting clause ref or -1.

        The inner loop reads only flat arrays: a blocker check is one
        ``_values`` load, and the clause body is touched only when the
        blocker fails.  Replacement watches are searched from the *end*
        of the clause so dormant guarded clauses park their watch on
        the activation literal (which sorts last).
        """
        trail = self._trail
        values = self._values
        pool = self._pool
        watch_crefs = self._watch_crefs
        watch_blockers = self._watch_blockers
        level = self._level
        reason = self._reason
        trail_append = trail.append
        stats = self.stats
        current_level = len(self._trail_lim)
        qhead = self._qhead
        props = 0
        traversed = 0
        blocker_hits = 0
        conflict = -1
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            props += 1
            false_lit = p ^ 1
            wc = watch_crefs[false_lit]
            wb = watch_blockers[false_lit]
            size = len(wc)
            traversed += size
            write = 0
            read = 0
            while read < size:
                blocker = wb[read]
                cref = wc[read]
                read += 1
                value = values[blocker]
                if value > 0:
                    wc[write] = cref
                    wb[write] = blocker
                    write += 1
                    blocker_hits += 1
                    continue
                if cref < 0:
                    # Binary clause: the blocker is its only other
                    # literal, so the value check above already did all
                    # the work — no pool access unless we must act.
                    real = -1 - cref
                    if pool[real] & 1:
                        continue  # lazily removed: drop the watcher
                    wc[write] = cref
                    wb[write] = blocker
                    write += 1
                    if value < 0:
                        conflict = real
                        while read < size:
                            wc[write] = wc[read]
                            wb[write] = wb[read]
                            read += 1
                            write += 1
                    else:
                        values[blocker] = 1
                        values[blocker ^ 1] = -1
                        var = blocker >> 1
                        level[var] = current_level
                        reason[var] = real
                        trail_append(blocker)
                    continue
                header = pool[cref]
                if header & 1:
                    # Lazily removed clause: drop the stale watcher.
                    continue
                base = cref + 2
                if pool[base] == false_lit:
                    pool[base] = pool[base + 1]
                    pool[base + 1] = false_lit
                first = pool[base]
                value = values[first]
                if value > 0:
                    wc[write] = cref
                    wb[write] = first
                    write += 1
                    continue
                moved = False
                for k in range(base + (header >> 3) - 1, base + 1, -1):
                    lit = pool[k]
                    if values[lit] >= 0:
                        pool[base + 1] = lit
                        pool[k] = false_lit
                        watch_crefs[lit].append(cref)
                        watch_blockers[lit].append(first)
                        moved = True
                        break
                if moved:
                    continue
                wc[write] = cref
                wb[write] = first
                write += 1
                if value < 0:
                    conflict = cref
                    while read < size:
                        wc[write] = wc[read]
                        wb[write] = wb[read]
                        read += 1
                        write += 1
                else:
                    values[first] = 1
                    values[first ^ 1] = -1
                    var = first >> 1
                    level[var] = current_level
                    reason[var] = cref
                    trail_append(first)
            if write != size:
                del wc[write:]
                del wb[write:]
            if conflict >= 0:
                qhead = len(trail)
                break
        self._qhead = qhead
        stats.propagations += props
        stats.watch_traversals += traversed
        stats.blocker_hits += blocker_hits
        return conflict

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            self._rescale_var_activity()
        heap_key = self._heap_key
        if heap_key[var] is not None and self._branchable[var]:
            key = -activity[var]
            heap_key[var] = key
            heappush(self._heap, (key, var))

    def _rescale_var_activity(self) -> None:
        activity = self._activity
        for v in range(1, self._num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        # Every heap key is now stale; rebuild the live entries.
        heap_key = self._heap_key
        heap: List[Tuple[float, int]] = []
        for v in range(1, self._num_vars + 1):
            if heap_key[v] is not None:
                key = -activity[v]
                heap_key[v] = key
                heap.append((key, v))
        heapify(heap)
        self._heap = heap

    def _decay_var_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, cref: int) -> None:
        slot = self._pool[cref + 1]
        cla_act = self._cla_act
        cla_act[slot] += self._cla_inc
        if cla_act[slot] > 1e20:
            pool = self._pool
            for learnt in self._learnts:
                cla_act[pool[learnt + 1]] *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self._clause_decay

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backtrack level).

        The learnt clause is in encoded-literal form.
        """
        learnt: List[int] = [0]  # position 0 reserved for the asserting literal
        pool = self._pool
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        path_count = 0
        p = -1
        index = len(trail) - 1
        current_level = len(self._trail_lim)
        to_clear: List[int] = []

        cref = conflict
        while True:
            header = pool[cref]
            if header & _LEARNT:
                self._bump_clause(cref)
            base = cref + 2
            # Reason clauses contain ``p`` itself; skip it by value (the
            # binary fast path does not keep the implied literal at
            # position 0, so positional skipping is not available).
            for pos in range(base, base + (header >> _SIZE_SHIFT)):
                enc = pool[pos]
                if enc == p:
                    continue
                var = enc >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump_var(var)
                    if level[var] >= current_level:
                        path_count += 1
                    else:
                        learnt.append(enc)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            cref = reason[p >> 1]
            seen[p >> 1] = 0
            path_count -= 1
            if path_count == 0:
                break
        learnt[0] = p ^ 1

        # Clause minimisation: drop literals implied by the rest of the clause.
        minimized = [learnt[0]]
        for enc in learnt[1:]:
            if not self._literal_redundant(enc):
                minimized.append(enc)
        learnt = minimized

        for var in to_clear:
            seen[var] = 0

        if len(learnt) == 1:
            backtrack_level = 0
        else:
            max_index = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_index] >> 1]:
                    max_index = i
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backtrack_level = level[learnt[1] >> 1]
        return learnt, backtrack_level

    def _literal_redundant(self, enc: int) -> bool:
        """Local minimisation: is ``enc`` implied by the other learnt literals?"""
        var = enc >> 1
        if var in self._act_groups:
            # Never drop an activation literal (see Solver._literal_redundant).
            return False
        cref = self._reason[var]
        if cref < 0:
            return False
        pool = self._pool
        seen = self._seen
        level = self._level
        base = cref + 2
        for pos in range(base, base + (pool[cref] >> _SIZE_SHIFT)):
            other_var = pool[pos] >> 1
            if other_var == var:
                continue
            if not seen[other_var] and level[other_var] > 0:
                return False
        return True

    def _analyze_final(self, failed_enc: int) -> List[int]:
        """Express the falsification of ``failed_enc`` via the assumptions."""
        responsible = {failed_enc ^ 1}
        if not self._trail_lim:
            return self._core_from_negations(responsible)
        pool = self._pool
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        marked: List[int] = [failed_enc >> 1]
        seen[failed_enc >> 1] = 1
        for i in range(len(trail) - 1, self._trail_lim[0] - 1, -1):
            enc = trail[i]
            var = enc >> 1
            if not seen[var]:
                continue
            cref = reason[var]
            if cref < 0:
                responsible.add(enc ^ 1)
            else:
                base = cref + 2
                for pos in range(base, base + (pool[cref] >> _SIZE_SHIFT)):
                    other_var = pool[pos] >> 1
                    if other_var == var:
                        continue
                    if level[other_var] > 0 and not seen[other_var]:
                        seen[other_var] = 1
                        marked.append(other_var)
            seen[var] = 0
        for var in marked:
            seen[var] = 0
        return self._core_from_negations(responsible)

    def _core_from_negations(self, negations: Iterable[int]) -> List[int]:
        assumption_set = set(self._assumptions)
        core = []
        for neg in negations:
            pos = neg ^ 1
            if pos in assumption_set:
                core.append(_decode(pos))
        return core

    def _record_learnt(self, learnt: List[int]) -> None:
        if len(learnt) == 1:
            self._unchecked_enqueue(learnt[0], _NO_REASON)
            return
        cref = self._alloc_clause(list(learnt), learnt=True)
        self._attach(cref)
        self._bump_clause(cref)
        self._learnts.append(cref)
        self.stats.learnt_clauses += 1
        if self._act_groups:
            # Index the learnt under every activation group it depends on
            # so that releasing a group can purge it in O(dependents).
            act_learnts = self._act_learnts
            for enc in learnt:
                dependents = act_learnts.get(enc >> 1)
                if dependents is not None:
                    dependents.append(cref)
        self._unchecked_enqueue(learnt[0], cref)

    def _reduce_db(self) -> None:
        """Remove roughly half of the least active, non-locked learnt clauses."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "sat.reduce_db", cat="sat", backend="arena", learnts=len(self._learnts)
            ):
                self._reduce_db_inner()
        else:
            self._reduce_db_inner()

    def _reduce_db_inner(self) -> None:
        pool = self._pool
        cla_act = self._cla_act
        reason = self._reason
        self._learnts.sort(
            key=lambda c: (pool[c] >> _SIZE_SHIFT <= 2, cla_act[pool[c + 1]])
        )
        keep: List[int] = []
        limit = len(self._learnts) // 2
        for i, cref in enumerate(self._learnts):
            size = pool[cref] >> _SIZE_SHIFT
            locked = reason[pool[cref + 2] >> 1] == cref
            if i < limit and size > 2 and not locked:
                self._delete_clause(cref)
                self.stats.removed_clauses += 1
            else:
                keep.append(cref)
        self._learnts = keep
        # Keep the per-activation learnt indexes from accumulating stale
        # entries for deleted clauses.
        for act, dependents in self._act_learnts.items():
            if len(dependents) > 32:
                self._act_learnts[act] = [
                    c for c in dependents if not pool[c] & _DELETED
                ]

    def set_seed(self, seed: int) -> None:
        """Enable seeded random branching (MiniSat-style diversification).

        Mirrors :meth:`repro.sat.solver.Solver.set_seed`: a ~2% fraction
        of decisions picks a uniformly random unassigned variable.  Seed
        0 (the default) disables the randomization, keeping the kernel
        identical to its unseeded behaviour.
        """
        self._rng = random.Random(seed) if seed else None

    def _pick_branch_literal(self) -> int:
        heap = self._heap
        heap_key = self._heap_key
        values = self._values
        branchable = self._branchable
        rng = self._rng
        if rng is not None and self._num_vars and rng.random() < 0.02:
            var = rng.randint(1, self._num_vars)
            if values[var << 1] == 0 and branchable[var]:
                # The variable's heap entry (if any) stays live; pops
                # skip assigned variables and ``_cancel_until`` only
                # reinserts variables whose key slot is empty.
                return (var << 1) | self._phase[var]
        while heap:
            key, var = heappop(heap)
            if heap_key[var] != key:
                continue  # stale entry superseded by a later bump
            heap_key[var] = None
            if values[var << 1] == 0 and branchable[var]:
                return (var << 1) | self._phase[var]
        return -1

    def _search(self, conflict_limit: int) -> Optional[bool]:
        """Run CDCL search until SAT, UNSAT or ``conflict_limit`` conflicts."""
        local_conflicts = 0
        values = self._values
        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.stats.conflicts += 1
                local_conflicts += 1
                if not self._trail_lim:
                    self._ok = False
                    self._conflict_core = []
                    return False
                learnt, backtrack_level = self._analyze(conflict)
                self._cancel_until(backtrack_level)
                self._record_learnt(learnt)
                self._decay_var_activity()
                self._decay_clause_activity()
                continue

            if local_conflicts >= conflict_limit:
                self.stats.restarts += 1
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.instant(
                        "sat.restart",
                        cat="sat",
                        backend="arena",
                        restarts=self.stats.restarts,
                        conflicts=self.stats.conflicts,
                    )
                self._cancel_until(0)
                return None

            if len(self._learnts) - len(self._trail) >= self._max_learnts:
                self._reduce_db()

            next_lit = -1
            assumptions = self._assumptions
            while len(self._trail_lim) < len(assumptions):
                assumption = assumptions[len(self._trail_lim)]
                value = values[assumption]
                if value > 0:
                    self._new_decision_level()
                elif value < 0:
                    self._conflict_core = self._analyze_final(assumption)
                    return False
                else:
                    next_lit = assumption
                    break

            if next_lit < 0:
                next_lit = self._pick_branch_literal()
                if next_lit < 0:
                    self._save_model()
                    return True
                self.stats.decisions += 1

            self._new_decision_level()
            self._unchecked_enqueue(next_lit, _NO_REASON)

    def _save_model(self) -> None:
        self._model = list(self._values)
