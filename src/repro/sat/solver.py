"""A CDCL SAT solver with assumptions, models and assumption cores.

The design follows MiniSat 2.2: two-watched-literal propagation, first-UIP
conflict analysis with clause minimisation, VSIDS variable activities with
phase saving, Luby restarts and learnt-clause database reduction.  The
external interface works directly with DIMACS-style signed integer
literals, which is what the rest of the library (CNF encoding, IC3) uses.

The engines do not run this kernel; they run the flat-arena
:class:`repro.sat.arena.ArenaSolver`.  This one is kept for three
reasons:

* it is the reference the randomized differential tests compare the
  arena kernel against (verdicts, models and assumption cores);
* it is the kernel of the independent witness checker
  (:mod:`repro.core.invariant`), so a certificate is never re-checked by
  the kernel of the engine that produced it;
* ``perfbench/layers.py`` wraps :meth:`Solver.solve` by name.

Typical use::

    solver = Solver()
    solver.add_clause([1, 2])
    solver.add_clause([-1, 3])
    if solver.solve(assumptions=[-3]):
        model = solver.get_model()
    else:
        core = solver.unsat_core()
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.cube import Cube
from repro.obs.tracer import get_tracer
from repro.sat.clause import SolverClause
from repro.sat.exceptions import ResourceBudgetExceeded, SolverError
from repro.sat.heap import VarOrderHeap
from repro.sat.luby import luby

_UNDEF = 0
_TRUE = 1
_FALSE = -1


def check_model_variables(variables: Sequence[int], num_vars: int) -> None:
    """Raise :class:`SolverError` unless every variable is in ``1..num_vars``."""
    if variables and (min(variables) < 1 or max(variables) > num_vars):
        bad = next(var for var in variables if not 1 <= var <= num_vars)
        raise SolverError(f"variable {bad} is not in the last model (1..{num_vars})")


@dataclass
class SolverStats:
    """Counters accumulated over the lifetime of a solver instance."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    removed_clauses: int = 0
    solve_calls: int = 0
    max_decision_level: int = 0

    # Activation-literal (removable clause) accounting.
    activation_vars_allocated: int = 0
    activation_vars_recycled: int = 0
    activation_vars_retired: int = 0
    guarded_clauses_added: int = 0
    guarded_clauses_freed: int = 0
    learnts_purged: int = 0
    assumption_levels_reused: int = 0

    # Cache/allocation-oriented counters (manifest schema v5).  The
    # traversal counters are maintained by both backends with the same
    # semantics: ``watch_traversals`` counts watcher entries visited by
    # unit propagation, ``blocker_hits`` the subset resolved by the
    # cached blocker literal alone (no clause memory touched).
    watch_traversals: int = 0
    blocker_hits: int = 0
    literal_pool_bytes: int = 0
    arena_compactions: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the statistics as a plain dictionary."""
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "restarts": self.restarts,
            "learnt_clauses": self.learnt_clauses,
            "removed_clauses": self.removed_clauses,
            "solve_calls": self.solve_calls,
            "max_decision_level": self.max_decision_level,
            "activation_vars_allocated": self.activation_vars_allocated,
            "activation_vars_recycled": self.activation_vars_recycled,
            "activation_vars_retired": self.activation_vars_retired,
            "guarded_clauses_added": self.guarded_clauses_added,
            "guarded_clauses_freed": self.guarded_clauses_freed,
            "learnts_purged": self.learnts_purged,
            "assumption_levels_reused": self.assumption_levels_reused,
            "watch_traversals": self.watch_traversals,
            "blocker_hits": self.blocker_hits,
            "literal_pool_bytes": self.literal_pool_bytes,
            "arena_compactions": self.arena_compactions,
        }


class Solver:
    """Incremental CDCL SAT solver over DIMACS integer literals."""

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
        self._assigns: List[int] = [_UNDEF]          # index 0 unused
        self._level: List[int] = [0]
        self._reason: List[Optional[SolverClause]] = [None]
        self._polarity: List[bool] = [False]
        self._branchable: List[bool] = [True]
        self._activity: List[float] = [0.0]
        self._seen: List[int] = [0]
        self._watches: List[List[list]] = [[], []]  # entries: [clause, blocker]

        self._clauses: List[SolverClause] = []
        self._learnts: List[SolverClause] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0

        self._order = VarOrderHeap(self._activity)
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._max_learnts = 1000.0

        self._ok = True
        self._model: Optional[List[int]] = None
        self._conflict_core: Optional[List[int]] = None
        self._assumptions: List[int] = []
        self._rng = None

        # Activation-literal machinery: each *active* activation variable
        # guards a group of removable clauses (every clause of the group
        # contains ``-act``); releasing the group detaches its clauses,
        # purges the learnt clauses that depend on them, and recycles the
        # variable for the next group.
        self._act_groups: Dict[int, List[SolverClause]] = {}
        self._act_learnts: Dict[int, List[SolverClause]] = {}
        self._act_free: List[int] = []
        self._act_retired: Set[int] = set()
        self._freed_clauses = 0

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
        """Number of live problem (non-learnt) clauses.

        Removed clauses are compacted out of the store lazily; the count
        excludes the deleted-but-uncompacted ones.
        """
        return len(self._clauses) - self._freed_clauses

    @property
    def num_learnts(self) -> int:
        """Number of learnt clauses currently kept."""
        return len(self._learnts)

    def new_var(self) -> int:
        """Create a fresh variable and return its index."""
        self._num_vars += 1
        var = self._num_vars
        self._assigns.append(_UNDEF)
        self._level.append(0)
        self._reason.append(None)
        self._polarity.append(False)
        self._branchable.append(True)
        self._activity.append(0.0)
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
        self._order.insert(var)
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
    ) -> Tuple[bool, Optional[SolverClause]]:
        """Add a problem clause and return (ok, stored clause handle).

        The handle is None when the clause was simplified away (tautology,
        already satisfied, or reduced to a unit enqueued at level 0).
        """
        if self._trail_lim:
            # Mutating the clause database invalidates the reusable
            # assumption trail kept between solve calls; flush it.
            self._cancel_until(0)
        if not self._ok:
            return False, None

        lits = sorted({int(l) for l in literals}, key=abs)
        if any(l == 0 for l in lits):
            raise SolverError("0 is not a valid literal")
        for lit in lits:
            self.ensure_var(abs(lit))

        # Simplify: drop tautologies and literals already false at level 0.
        simplified: List[int] = []
        lit_set = set(lits)
        for lit in lits:
            if -lit in lit_set:
                return True, None  # tautology, trivially satisfied
            value = self._lit_value(lit)
            if value == _TRUE:
                return True, None  # already satisfied at level 0
            if value == _FALSE:
                continue
            simplified.append(lit)

        if not simplified:
            self._ok = False
            return False, None
        if len(simplified) == 1:
            self._unchecked_enqueue(simplified[0], None)
            self._ok = self._propagate() is None
            return self._ok, None

        clause = SolverClause(simplified, learnt=False)
        self._clauses.append(clause)
        self._attach(clause)
        self.stats.literal_pool_bytes += 8 * (len(simplified) + 2)
        return True, clause

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

        Clauses added with :meth:`add_guarded` are only active while the
        returned variable is assumed true; :meth:`release` removes the
        whole group and recycles the variable.  Recycling is sound because
        (a) activation variables only ever occur negatively in clauses, so
        every learnt clause that depends on a guarded clause contains the
        negated activation literal (conflict-clause minimisation is
        act-aware, see :meth:`_literal_redundant`), and (b) those learnts
        are purged on release.
        """
        if self._act_free:
            act = self._act_free.pop()
            self.stats.activation_vars_recycled += 1
        else:
            act = self.new_var()
            self.stats.activation_vars_allocated += 1
            # Activation variables keep a fixed false default phase: a
            # VSIDS decision on one then *deactivates* its clause group
            # (nearly free) instead of replaying a dormant frame's lemmas.
            self._branchable[act] = False
        if self._assigns[act] != _UNDEF and self._trail_lim:
            # A recycled variable may carry a stale search decision from
            # the reusable trail; flush before handing it out again.
            self._cancel_until(0)
        self._act_groups[act] = []
        self._act_learnts[act] = []
        return act

    def add_guarded(
        self, act: int, literals: Iterable[int]
    ) -> Tuple[bool, Optional[SolverClause]]:
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
            attached, clause = self._attach_live([-act] + [int(l) for l in literals])
            if attached:
                if clause is not None:
                    group.append(clause)
                self.stats.guarded_clauses_added += 1
                return True, clause
        ok, clause = self._add_clause_internal([-act] + [int(l) for l in literals])
        if clause is not None:
            group.append(clause)
        self.stats.guarded_clauses_added += 1
        return ok, clause

    def _attach_live(
        self, literals: Iterable[int]
    ) -> Tuple[bool, Optional[SolverClause]]:
        """Attach a clause mid-search without cancelling the trail.

        Only level-0 assignments are used for simplification; the clause
        is stored watching two literals that are currently non-false, so
        every watch invariant holds on the live trail.  Returns
        ``(False, None)`` when the clause is unit or conflicting under
        the current assignment — the caller must then fall back to the
        flushing path.
        """
        lits = sorted({int(l) for l in literals}, key=abs)
        if any(l == 0 for l in lits):
            raise SolverError("0 is not a valid literal")
        for lit in lits:
            self.ensure_var(abs(lit))
        lit_set = set(lits)
        simplified: List[int] = []
        for lit in lits:
            if -lit in lit_set:
                return True, None  # tautology
            var = abs(lit)
            if self._assigns[var] != _UNDEF and self._level[var] == 0:
                value = self._assigns[var] if lit > 0 else -self._assigns[var]
                if value == _TRUE:
                    return True, None  # satisfied at level 0
                continue  # false at level 0: drop
            simplified.append(lit)
        if len(simplified) < 2:
            return False, None
        non_false = [lit for lit in simplified if self._lit_value(lit) != _FALSE]
        if len(non_false) < 2:
            return False, None
        watch_a, watch_b = non_false[0], non_false[1]
        rest = [l for l in simplified if l != watch_a and l != watch_b]
        clause = SolverClause([watch_a, watch_b] + rest, learnt=False)
        self._clauses.append(clause)
        self._attach(clause)
        self.stats.literal_pool_bytes += 8 * (len(simplified) + 2)
        return True, clause

    def remove_guarded(self, act: int, clause: SolverClause) -> None:
        """Remove one clause from an activation group.

        The caller must guarantee that the clause is *implied* by the
        remaining database (e.g. it is subsumed by another clause, or
        follows from it through frame-implication chains): learnt clauses
        derived from it stay attached and must remain sound.  Removal is
        a pure lazy-deletion mark, so it never flushes the reusable
        trail — propagation drops the stale watchers on its next visit
        (and the implied clause remains a sound reason meanwhile).
        """
        group = self._act_groups.get(act)
        if group is None:
            raise SolverError(f"{act} is not an active activation variable")
        if clause.deleted:
            return
        try:
            group.remove(clause)
        except ValueError:
            raise SolverError("clause does not belong to the given activation group")
        self._free_clause(clause)
        self.stats.guarded_clauses_freed += 1

    def _free_clause(self, clause: SolverClause) -> None:
        """Lazily delete a problem clause (watchers are dropped by propagate)."""
        clause.deleted = True
        self._freed_clauses += 1
        self.stats.literal_pool_bytes -= 8 * (len(clause.lits) + 2)
        if self._freed_clauses >= 64 and self._freed_clauses * 2 >= len(self._clauses):
            self._clauses = [c for c in self._clauses if not c.deleted]
            self._freed_clauses = 0
            self.stats.arena_compactions += 1

    def release(self, act: int) -> None:
        """Remove the clause group of ``act`` and recycle the variable.

        Deletes the guarded clauses, purges every learnt clause whose
        derivation could depend on them (all mention ``-act``), and either
        returns the variable to the free list or — when unit propagation
        fixed it at level 0 — retires it permanently.
        """
        if self._trail_lim:
            # Clauses above level 0 may act as reasons on the reusable
            # trail; flush it before deleting anything.
            self._cancel_until(0)
        group = self._act_groups.pop(act, None)
        if group is None:
            raise SolverError(f"{act} is not an active activation variable")
        for clause in group:
            if not clause.deleted:
                self._free_clause(clause)
                self.stats.guarded_clauses_freed += 1

        dependent = self._act_learnts.pop(act)
        purged = 0
        for clause in dependent:
            if clause.deleted:
                continue
            clause.deleted = True
            self.stats.literal_pool_bytes -= 8 * (len(clause.lits) + 2)
            purged += 1
        if purged:
            self._learnts = [c for c in self._learnts if not c.deleted]
            self.stats.learnts_purged += purged

        if self._assigns[act] != _UNDEF:
            # Propagation fixed the variable at level 0 (always to false);
            # the assignment outlives the group, so never reuse the var.
            self._act_retired.add(act)
            self.stats.activation_vars_retired += 1
        else:
            self._act_free.append(act)

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
            "sat.solve", cat="sat", backend="default", assumptions=len(assumptions)
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

        new_assumptions = [int(l) for l in assumptions]
        for lit in new_assumptions:
            if lit == 0:
                raise SolverError("0 is not a valid assumption literal")
            self.ensure_var(abs(lit))

        # Assumption-trail reuse: the trail is kept alive between solve
        # calls (any clause addition or release flushes it), so when the
        # new assumption list shares a prefix with the previous one, the
        # decision levels of that prefix — and all the unit propagation
        # they triggered — are reused instead of being replayed.  Kept
        # levels only ever contain assumption decisions and their
        # propagation consequences: search decisions live above
        # ``len(previous assumptions)`` and the reused prefix is capped
        # below that, so everything kept is implied by the (new)
        # assumption prefix together with the clause database.
        limit = min(
            len(new_assumptions), len(self._assumptions), self._decision_level()
        )
        keep = 0
        while keep < limit and new_assumptions[keep] == self._assumptions[keep]:
            keep += 1
        self._cancel_until(keep)
        self.stats.assumption_levels_reused += keep
        self._assumptions = new_assumptions

        self._max_learnts = max(
            1000.0,
            (len(self._clauses) - self._freed_clauses) * self._max_learnt_factor,
        )
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
        return {
            var: value == _TRUE
            for var, value in enumerate(self._model)
            if var > 0 and value != _UNDEF
        }

    def model_value(self, lit: int) -> Optional[bool]:
        """Value of a literal in the last model (None if unassigned)."""
        if self._model is None:
            raise SolverError("no model available (last call was not SAT)")
        var = abs(lit)
        if var >= len(self._model) or self._model[var] == _UNDEF:
            return None
        return (self._model[var] == _TRUE) == (lit > 0)

    def model_literals(self, variables: Sequence[int]) -> Tuple[int, ...]:
        """The last model projected onto ``variables``, as signed literals.

        One literal per variable, in the given order: ``var`` if it is
        true, ``-var`` otherwise, so an unassigned variable reads as
        false.  Raises :class:`SolverError` when there is no model, or
        when a variable is outside ``1..num_vars`` of the solve that
        found it.
        """
        model = self._model
        if model is None:
            raise SolverError("no model available (last call was not SAT)")
        check_model_variables(variables, len(model) - 1)
        return tuple([var if model[var] == _TRUE else -var for var in variables])

    def model_cube(self, variables: Iterable[int]) -> Cube:
        """The last model projected onto a cube; unassigned variables read as false."""
        return Cube(self.model_literals(list(variables)))

    def unsat_core(self) -> List[int]:
        """Subset of the assumptions responsible for the last UNSAT answer."""
        if self._conflict_core is None:
            raise SolverError("no unsat core available (last call was not UNSAT)")
        return list(self._conflict_core)

    def is_consistent(self) -> bool:
        """False once the clause set is unsatisfiable at level 0."""
        return self._ok

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _lit_index(lit: int) -> int:
        return (abs(lit) << 1) | (lit < 0)

    def _lit_value(self, lit: int) -> int:
        value = self._assigns[abs(lit)]
        if value == _UNDEF:
            return _UNDEF
        return value if lit > 0 else -value

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _attach(self, clause: SolverClause) -> None:
        # Watcher entries are [clause, blocker]: the blocker caches the
        # other watched literal so propagation can skip satisfied clauses
        # with a single value check (MiniSat 2.2's blocking literal).
        lits = clause.lits
        self._watches[self._lit_index(lits[0])].append([clause, lits[1]])
        self._watches[self._lit_index(lits[1])].append([clause, lits[0]])

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))
        depth = len(self._trail_lim)
        if depth > self.stats.max_decision_level:
            self.stats.max_decision_level = depth

    def _unchecked_enqueue(self, lit: int, reason: Optional[SolverClause]) -> None:
        var = abs(lit)
        self._assigns[var] = _TRUE if lit > 0 else _FALSE
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        branchable = self._branchable
        assigns = self._assigns
        reason = self._reason
        order_insert = self._order.insert
        for i in range(len(self._trail) - 1, boundary - 1, -1):
            lit = self._trail[i]
            var = lit if lit > 0 else -lit
            if branchable[var]:
                # Activation variables keep their fixed false phase and
                # never (re-)enter the decision heap: deciding one could
                # only deactivate its clause group, and excluding them
                # keeps the heap from churning on assumption variables.
                self._polarity[var] = lit > 0
                order_insert(var)
            assigns[var] = _UNDEF
            reason[var] = None
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _propagate(self) -> Optional[SolverClause]:
        """Unit propagation; returns a conflicting clause or None.

        The hot loop avoids method-call overhead by working on local
        aliases and computing literal values inline.  Replacement watches
        are searched from the *end* of the clause: activation literals
        sort last, so a dormant guarded clause parks its watch on its
        activation literal after a single visit instead of hopping
        between problem literals on every query.
        """
        trail = self._trail
        watches = self._watches
        assigns = self._assigns
        stats = self.stats
        traversed = 0
        blocker_hits = 0
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            stats.propagations += 1
            neg_p = -p
            if neg_p > 0:
                watch_index = neg_p << 1
            else:
                watch_index = (-neg_p << 1) | 1
            watch_list = watches[watch_index]
            conflict: Optional[SolverClause] = None
            write = 0
            read = 0
            size = len(watch_list)
            traversed += size
            while read < size:
                entry = watch_list[read]
                read += 1
                if conflict is not None:
                    watch_list[write] = entry
                    write += 1
                    continue
                blocker = entry[1]
                if (assigns[blocker] if blocker > 0 else -assigns[-blocker]) == _TRUE:
                    watch_list[write] = entry
                    write += 1
                    blocker_hits += 1
                    continue
                clause = entry[0]
                if clause.deleted:
                    # Lazily removed clause: drop the stale watcher.
                    continue
                lits = clause.lits
                if lits[0] == neg_p:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                entry[1] = first
                value = assigns[first] if first > 0 else -assigns[-first]
                if value == _TRUE:
                    watch_list[write] = entry
                    write += 1
                    continue
                moved = False
                for k in range(len(lits) - 1, 1, -1):
                    lit = lits[k]
                    if (assigns[lit] if lit > 0 else -assigns[-lit]) != _FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        if lit > 0:
                            watches[lit << 1].append([clause, first])
                        else:
                            watches[(-lit << 1) | 1].append([clause, first])
                        moved = True
                        break
                if moved:
                    continue
                watch_list[write] = entry
                write += 1
                if value == _FALSE:
                    conflict = clause
                else:
                    self._unchecked_enqueue(first, clause)
            if write != size:
                del watch_list[write:]
            if conflict is not None:
                self._qhead = len(trail)
                stats.watch_traversals += traversed
                stats.blocker_hits += blocker_hits
                return conflict
        stats.watch_traversals += traversed
        stats.blocker_hits += blocker_hits
        return None

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        if self._branchable[var]:
            self._order.update(var)

    def _decay_var_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, clause: SolverClause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for learnt in self._learnts:
                learnt.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self._clause_decay

    def _analyze(self, conflict: SolverClause) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backtrack level)."""
        learnt: List[int] = [0]  # position 0 reserved for the asserting literal
        seen = self._seen
        path_count = 0
        p: Optional[int] = None
        index = len(self._trail) - 1
        current_level = self._decision_level()
        to_clear: List[int] = []

        clause: Optional[SolverClause] = conflict
        while True:
            assert clause is not None
            if clause.learnt:
                self._bump_clause(clause)
            start = 0 if p is None else 1
            for lit in clause.lits[start:]:
                var = abs(lit)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        path_count += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(self._trail[index])]:
                index -= 1
            p = self._trail[index]
            index -= 1
            clause = self._reason[abs(p)]
            seen[abs(p)] = 0
            path_count -= 1
            if path_count == 0:
                break
        learnt[0] = -p

        # Clause minimisation: drop literals implied by the rest of the clause.
        minimized = [learnt[0]]
        for lit in learnt[1:]:
            if not self._literal_redundant(lit):
                minimized.append(lit)
        learnt = minimized

        for var in to_clear:
            seen[var] = 0

        if len(learnt) == 1:
            backtrack_level = 0
        else:
            max_index = 1
            for i in range(2, len(learnt)):
                if self._level[abs(learnt[i])] > self._level[abs(learnt[max_index])]:
                    max_index = i
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backtrack_level = self._level[abs(learnt[1])]
        return learnt, backtrack_level

    def _literal_redundant(self, lit: int) -> bool:
        """Local minimisation: is ``lit`` implied by the other learnt literals?"""
        if abs(lit) in self._act_groups:
            # Never drop an activation literal: it records that the learnt
            # clause depends on a removable clause group, which is what
            # makes releasing and recycling the group sound.
            return False
        reason = self._reason[abs(lit)]
        if reason is None:
            return False
        for other in reason.lits:
            if abs(other) == abs(lit):
                continue
            var = abs(other)
            if not self._seen[var] and self._level[var] > 0:
                return False
        return True

    def _analyze_final(self, failed_lit: int) -> List[int]:
        """Express the falsification of ``failed_lit`` in terms of assumptions.

        Returns the subset of the current assumptions responsible.
        """
        responsible = {-failed_lit}
        if self._decision_level() == 0:
            return self._core_from_negations(responsible)
        seen = self._seen
        marked: List[int] = [abs(failed_lit)]
        seen[abs(failed_lit)] = 1
        for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                responsible.add(-lit)
            else:
                for other in reason.lits[1:]:
                    other_var = abs(other)
                    if self._level[other_var] > 0 and not seen[other_var]:
                        seen[other_var] = 1
                        marked.append(other_var)
            seen[var] = 0
        for var in marked:
            seen[var] = 0
        return self._core_from_negations(responsible)

    def _core_from_negations(self, negations: Iterable[int]) -> List[int]:
        assumption_set = set(self._assumptions)
        return [-lit for lit in negations if -lit in assumption_set]

    def _record_learnt(self, learnt: List[int]) -> None:
        if len(learnt) == 1:
            self._unchecked_enqueue(learnt[0], None)
            return
        clause = SolverClause(list(learnt), learnt=True)
        self._learnts.append(clause)
        self._attach(clause)
        self._bump_clause(clause)
        self.stats.learnt_clauses += 1
        self.stats.literal_pool_bytes += 8 * (len(learnt) + 2)
        if self._act_groups:
            # Index the learnt under every activation group it depends on
            # so that releasing a group can purge it in O(dependents).
            for lit in learnt:
                dependents = self._act_learnts.get(abs(lit))
                if dependents is not None:
                    dependents.append(clause)
        self._unchecked_enqueue(learnt[0], clause)

    def _reduce_db(self) -> None:
        """Remove roughly half of the least active, non-locked learnt clauses."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "sat.reduce_db", cat="sat", backend="default", learnts=len(self._learnts)
            ):
                self._reduce_db_inner()
        else:
            self._reduce_db_inner()

    def _reduce_db_inner(self) -> None:
        self._learnts.sort(key=lambda c: (len(c.lits) <= 2, c.activity))
        keep: List[SolverClause] = []
        limit = len(self._learnts) // 2
        for i, clause in enumerate(self._learnts):
            locked = self._reason[abs(clause.lits[0])] is clause
            if i < limit and len(clause.lits) > 2 and not locked:
                clause.deleted = True
                self.stats.removed_clauses += 1
                self.stats.literal_pool_bytes -= 8 * (len(clause.lits) + 2)
            else:
                keep.append(clause)
        self._learnts = keep
        # Keep the per-activation learnt indexes from accumulating stale
        # entries for deleted clauses.
        for act, dependents in self._act_learnts.items():
            if len(dependents) > 32:
                self._act_learnts[act] = [c for c in dependents if not c.deleted]

    def set_seed(self, seed: int) -> None:
        """Enable seeded random branching (MiniSat-style diversification).

        A small fraction of decisions picks a uniformly random unassigned
        variable instead of the top-activity one, steering otherwise
        identical solvers into different parts of the search space —
        the per-member jitter of the portfolio.  Seed 0 (the
        default) disables the randomization entirely, keeping the kernel
        byte-for-byte deterministic against its unseeded behaviour; any
        other seed is itself fully deterministic.
        """
        self._rng = random.Random(seed) if seed else None

    def _pick_branch_literal(self) -> Optional[int]:
        rng = self._rng
        if rng is not None and self._num_vars and rng.random() < 0.02:
            var = rng.randint(1, self._num_vars)
            if self._assigns[var] == _UNDEF and self._branchable[var]:
                # The variable stays in the order heap; assigned entries
                # are skipped on pop and insert() is idempotent.
                return var if self._polarity[var] else -var
        while not self._order.is_empty():
            var = self._order.pop_max()
            if self._assigns[var] == _UNDEF and self._branchable[var]:
                return var if self._polarity[var] else -var
        return None

    def _search(self, conflict_limit: int) -> Optional[bool]:
        """Run CDCL search until SAT, UNSAT or ``conflict_limit`` conflicts."""
        local_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                local_conflicts += 1
                if self._decision_level() == 0:
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
                        backend="default",
                        restarts=self.stats.restarts,
                        conflicts=self.stats.conflicts,
                    )
                self._cancel_until(0)
                return None

            if len(self._learnts) - len(self._trail) >= self._max_learnts:
                self._reduce_db()

            next_lit: Optional[int] = None
            while self._decision_level() < len(self._assumptions):
                assumption = self._assumptions[self._decision_level()]
                value = self._lit_value(assumption)
                if value == _TRUE:
                    self._new_decision_level()
                elif value == _FALSE:
                    self._conflict_core = self._analyze_final(assumption)
                    return False
                else:
                    next_lit = assumption
                    break

            if next_lit is None:
                next_lit = self._pick_branch_literal()
                if next_lit is None:
                    self._save_model()
                    return True
                self.stats.decisions += 1

            self._new_decision_level()
            self._unchecked_enqueue(next_lit, None)

    def _save_model(self) -> None:
        self._model = list(self._assigns)
