"""A plain CDCL reference solver over DIMACS literals, with assumptions and cores.

The search follows MiniSat 2.2: two watched literals with blockers, first-UIP
learning with recursive minimisation, VSIDS with phase saving, Luby restarts
and learnt-clause reduction.  It is the kernel of the independent witness
checker (:mod:`repro.core.invariant`), which must not share the engines'
arena kernel, and the from-scratch oracle of that kernel's tests.  Clauses
may be added between solves; nothing is removed, each solve starts and ends
at level 0, and learnt clauses are kept across solves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sat.exceptions import ResourceBudgetExceeded, SolverError
from repro.sat.heap import VarOrderHeap
from repro.sat.luby import luby

_UNDEF, _TRUE, _FALSE = 0, 1, -1  # variable values; a literal's is negated if negative
_VAR_DECAY = 0.95
_CLAUSE_DECAY = 0.999
_RESTART_BASE = 100
_LEARNT_FACTOR = 1.0 / 3.0
_LEARNT_GROWTH = 1.1


def check_model_variables(variables: Sequence[int], num_vars: int) -> None:
    """Raise :class:`SolverError` unless every variable is in ``1..num_vars``."""
    if variables and (min(variables) < 1 or max(variables) > num_vars):
        bad = next(var for var in variables if not 1 <= var <= num_vars)
        raise SolverError(f"variable {bad} is not in the last model (1..{num_vars})")


@dataclass
class SolverStats:
    """Lifetime counters; :class:`Solver` fills those up to ``max_decision_level``."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    removed_clauses: int = 0
    solve_calls: int = 0
    max_decision_level: int = 0
    activation_vars_allocated: int = 0
    activation_vars_recycled: int = 0
    activation_vars_retired: int = 0
    guarded_clauses_added: int = 0
    guarded_clauses_freed: int = 0
    learnts_purged: int = 0
    assumption_levels_reused: int = 0
    watch_traversals: int = 0
    blocker_hits: int = 0
    literal_pool_bytes: int = 0
    arena_compactions: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the statistics as a plain dictionary."""
        return asdict(self)


class Solver:
    """CDCL SAT solver.  A clause is a list of literals with its two watches
    first; a reason clause holds the literal it implied first.  A clause is
    learnt if ``_activity_of`` has an entry for its ``id``."""

    def __init__(self) -> None:
        # Per variable (index 0 unused); ``_seen`` marks conflict analysis.
        self._assigns: List[int] = [_UNDEF]
        self._level: List[int] = [0]
        self._reason: List[Optional[list]] = [None]
        self._polarity: List[bool] = [False]
        self._activity: List[float] = [0.0]
        self._seen: List[int] = [0]
        # Per encoded literal (var << 1 | negative): [clause, other watch].
        self._watches: List[List[list]] = [[], []]
        self._num_vars = self._num_clauses = self._qhead = 0
        self._learnts: List[list] = []
        self._activity_of: Dict[int, float] = {}
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._order = VarOrderHeap(self._activity)
        self._var_inc = self._cla_inc = 1.0
        self._max_learnts = 1000.0
        self._ok = True
        self._model: Optional[List[int]] = None
        self._core: Optional[List[int]] = None
        self._assumptions: List[int] = []
        self.stats = SolverStats()

    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._num_vars

    def new_var(self) -> int:
        """Create a fresh variable and return its index."""
        self._num_vars += 1
        self._assigns.append(_UNDEF)
        self._level.append(0)
        self._reason.append(None)
        self._polarity.append(False)
        self._activity.append(0.0)
        self._seen.append(0)
        self._watches += [[], []]
        self._order.insert(self._num_vars)
        return self._num_vars

    def ensure_var(self, var: int) -> None:
        """Make sure variable ``var`` (and all below it) exists."""
        if var <= 0:
            raise SolverError(f"variable index must be positive, got {var}")
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; False once the clauses are unsatisfiable at level 0."""
        lits = sorted({int(lit) for lit in literals}, key=abs)
        if 0 in lits:
            raise SolverError("0 is not a valid literal")
        if lits:
            self.ensure_var(abs(lits[-1]))
        if not self._ok:
            return False
        # Drop tautologies, clauses true at level 0 and literals false there.
        clause: List[int] = []
        for lit in lits:
            value = self._value(lit)
            if value == _TRUE or (clause and clause[-1] == -lit):
                return True
            if value == _UNDEF:
                clause.append(lit)
        if not clause:
            self._ok = False
        elif len(clause) == 1:
            self._enqueue(clause[0], None)
            self._ok = self._propagate() is None
        else:
            self._num_clauses += 1
            self._attach(clause)
        return self._ok

    def solve(self, assumptions: Sequence[int] = (), conflict_budget: Optional[int] = None) -> bool:
        """Solve under assumptions: True (SAT) or False (UNSAT).  Raises
        :class:`ResourceBudgetExceeded` after ``conflict_budget`` conflicts."""
        result = self.solve_limited(assumptions, conflict_budget)
        if result is None:
            raise ResourceBudgetExceeded(f"conflict budget of {conflict_budget} exhausted")
        return result

    def solve_limited(
        self, assumptions: Sequence[int] = (), conflict_budget: Optional[int] = None
    ) -> Optional[bool]:
        """Like :meth:`solve`, but returns None when the budget is exhausted."""
        assumptions = [int(lit) for lit in assumptions]
        if 0 in assumptions:
            raise SolverError("0 is not a valid assumption literal")
        for lit in assumptions:
            self.ensure_var(abs(lit))
        self.stats.solve_calls += 1
        self._model, self._core = None, (None if self._ok else [])
        if not self._ok:
            return False
        self._assumptions = assumptions
        self._max_learnts = max(1000.0, self._num_clauses * _LEARNT_FACTOR)
        budget = float("inf") if conflict_budget is None else conflict_budget
        start, restart_round, status = self.stats.conflicts, 0, None
        while status is None and self.stats.conflicts - start < budget:
            used = self.stats.conflicts - start
            status = self._search(min(_RESTART_BASE * luby(restart_round), budget - used))
            restart_round += 1
            self._max_learnts *= _LEARNT_GROWTH
        self._cancel_until(0)
        return status

    def get_model(self) -> Dict[int, bool]:
        """Return the last model as a ``var -> bool`` mapping."""
        return {var: value == _TRUE for var, value in enumerate(self._last_model()) if value}

    def model_value(self, lit: int) -> Optional[bool]:
        """Value of a literal in the last model (None if unassigned)."""
        model = self._last_model()
        value = model[abs(lit)] if abs(lit) < len(model) else _UNDEF
        return None if value == _UNDEF else (value == _TRUE) == (lit > 0)

    def model_literals(self, variables: Sequence[int]) -> Tuple[int, ...]:
        """The last model on ``variables``, in order: ``var`` if true, else ``-var``.
        Raises :class:`SolverError` without a model or for a variable outside it."""
        model = self._last_model()
        check_model_variables(variables, len(model) - 1)
        return tuple([var if model[var] == _TRUE else -var for var in variables])

    def model_values(self, variables: range) -> List[int]:
        """The last model's values on ``variables``: 1 true, -1 false, 0
        unassigned.  Raises like :meth:`model_literals`."""
        model = self._last_model()
        check_model_variables(variables, len(model) - 1)
        return [model[var] for var in variables]

    def unsat_core(self) -> List[int]:
        """Subset of the assumptions responsible for the last UNSAT answer."""
        if self._core is None:
            raise SolverError("no unsat core available (last call was not UNSAT)")
        return list(self._core)

    def _last_model(self) -> List[int]:
        if self._model is None:
            raise SolverError("no model available (last call was not SAT)")
        return self._model

    def _value(self, lit: int) -> int:
        value = self._assigns[abs(lit)]
        return value if lit > 0 else -value

    def _attach(self, clause: list) -> None:
        watches = self._watches
        first, second = clause[0], clause[1]
        watches[(first << 1) if first > 0 else (-first << 1) | 1].append([clause, second])
        watches[(second << 1) if second > 0 else (-second << 1) | 1].append([clause, first])

    def _enqueue(self, lit: int, reason: Optional[list]) -> None:
        var = abs(lit)
        self._assigns[var] = _TRUE if lit > 0 else _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))
        self.stats.max_decision_level = max(self.stats.max_decision_level, len(self._trail_lim))

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        boundary = self._trail_lim[level]
        assigns, reason, polarity = self._assigns, self._reason, self._polarity
        for lit in reversed(self._trail[boundary:]):
            var = abs(lit)
            polarity[var] = lit > 0
            assigns[var] = _UNDEF
            reason[var] = None
            self._order.insert(var)
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = boundary

    def _propagate(self) -> Optional[list]:
        """Unit propagation, literal values inlined; returns a conflict or None."""
        trail, watches, assigns = self._trail, self._watches, self._assigns
        propagated = 0
        conflict = None
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            propagated += 1
            false_lit = -p
            watch_list = watches[(p << 1) | 1 if p > 0 else -p << 1]
            write = 0
            for read in range(len(watch_list)):
                entry = watch_list[read]
                blocker = entry[1]
                if (assigns[blocker] if blocker > 0 else -assigns[-blocker]) != _TRUE:
                    clause = entry[0]
                    if clause[0] == false_lit:
                        clause[0], clause[1] = clause[1], false_lit
                    first = entry[1] = clause[0]
                    value = assigns[first] if first > 0 else -assigns[-first]
                    if value != _TRUE:
                        for k in range(len(clause) - 1, 1, -1):
                            lit = clause[k]
                            if (assigns[lit] if lit > 0 else -assigns[-lit]) != _FALSE:
                                clause[1], clause[k] = lit, false_lit
                                watches[(lit << 1) if lit > 0 else (-lit << 1) | 1].append(entry)
                                break
                        else:
                            if value == _FALSE:
                                conflict = clause
                                break
                            self._enqueue(first, clause)
                        if clause[1] != false_lit:
                            continue  # now watched by its new literal
                watch_list[write] = entry
                write += 1
            if conflict is not None:
                del watch_list[write:read]  # keeps the conflict's entry and the rest
                self._qhead = len(trail)
                break
            del watch_list[write:]
        self.stats.propagations += propagated
        return conflict

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
        self._order.update(var)

    def _analyze(self, conflict: list) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backtrack level)."""
        seen, level, reason, trail = self._seen, self._level, self._reason, self._trail
        activity_of = self._activity_of
        learnt = [0]  # position 0 is reserved for the asserting literal
        current, path_count, index = len(self._trail_lim), 0, len(trail) - 1
        clause, start = conflict, 0
        while True:
            if id(clause) in activity_of:  # bump a learnt clause
                activity_of[id(clause)] += self._cla_inc
                if activity_of[id(clause)] > 1e20:
                    for key in activity_of:
                        activity_of[key] *= 1e-20
                    self._cla_inc *= 1e-20
            for lit in clause[start:]:
                var = abs(lit)
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if level[var] >= current:
                        path_count += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(trail[index])]:
                index -= 1
            p = trail[index]
            index -= 1
            seen[abs(p)] = 0
            path_count -= 1
            if path_count == 0:
                break
            clause, start = reason[abs(p)], 1
        learnt[0] = -p

        # Recursive minimisation: drop the literals implied by the rest.
        to_clear = [abs(lit) for lit in learnt[1:]]
        levels = sum({1 << (level[var] & 31) for var in to_clear})  # OR of distinct bits
        minimized = [learnt[0]]
        for lit in learnt[1:]:
            if reason[abs(lit)] is None or not self._redundant(lit, levels, to_clear):
                minimized.append(lit)
        for var in to_clear:
            seen[var] = 0

        if len(minimized) == 1:
            return minimized, 0
        deepest = max(range(1, len(minimized)), key=lambda i: level[abs(minimized[i])])
        minimized[1], minimized[deepest] = minimized[deepest], minimized[1]
        return minimized, level[abs(minimized[1])]

    def _redundant(self, lit: int, levels: int, to_clear: List[int]) -> bool:
        """Is ``lit`` implied by seen literals through reasons?  ``levels`` is the
        clause's levels mod 32, to fail fast; failure undoes this call's marks."""
        seen, level, reason = self._seen, self._level, self._reason
        mark = len(to_clear)
        stack = [lit]
        while stack:
            for other in reason[abs(stack.pop())][1:]:
                var = abs(other)
                if seen[var] or level[var] == 0:
                    continue
                if reason[var] is None or not levels & (1 << (level[var] & 31)):
                    for undo in to_clear[mark:]:
                        seen[undo] = 0
                    del to_clear[mark:]
                    return False
                seen[var] = 1
                stack.append(other)
                to_clear.append(var)
        return True

    def _analyze_final(self, failed: int) -> List[int]:
        """The assumptions that, with the clauses, falsify assumption ``failed``."""
        seen, level, reason = self._seen, self._level, self._reason
        responsible = {failed}
        seen[abs(failed)] = 1
        for lit in reversed(self._trail):
            var = abs(lit)
            if seen[var]:
                seen[var] = 0
                if reason[var] is not None:
                    for other in reason[var][1:]:
                        if level[abs(other)] > 0:
                            seen[abs(other)] = 1
                elif level[var] > 0:
                    responsible.add(lit)  # a decision, hence an assumption
        return [lit for lit in self._assumptions if lit in responsible]

    def _reduce_db(self) -> None:
        """Delete the less active half of the learnt clauses but binaries and reasons."""
        activity_of, reason, learnts = self._activity_of, self._reason, self._learnts
        learnts.sort(key=lambda c: (len(c) <= 2, activity_of[id(c)]))
        removed = {
            id(c) for c in learnts[: len(learnts) // 2] if len(c) > 2 and reason[abs(c[0])] is not c
        }
        self._learnts = [c for c in learnts if id(c) not in removed]
        self._activity_of = {id(c): activity_of[id(c)] for c in self._learnts}
        for watch_list in self._watches:
            watch_list[:] = [entry for entry in watch_list if id(entry[0]) not in removed]
        self.stats.removed_clauses += len(removed)

    def _search(self, conflict_limit: int) -> Optional[bool]:
        """Run CDCL search until SAT, UNSAT or ``conflict_limit`` conflicts."""
        stats, assumptions = self.stats, self._assumptions
        limit = stats.conflicts + conflict_limit
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                if not self._trail_lim:
                    self._ok, self._core = False, []
                    return False
                learnt, backtrack_level = self._analyze(conflict)
                self._cancel_until(backtrack_level)
                if len(learnt) > 1:
                    self._learnts.append(learnt)
                    self._activity_of[id(learnt)] = self._cla_inc
                    self._attach(learnt)
                    stats.learnt_clauses += 1
                self._enqueue(learnt[0], learnt if len(learnt) > 1 else None)
                self._var_inc /= _VAR_DECAY
                self._cla_inc /= _CLAUSE_DECAY
                continue
            if stats.conflicts >= limit:
                stats.restarts += 1
                self._cancel_until(0)
                return None
            if len(self._learnts) - len(self._trail) >= self._max_learnts:
                self._reduce_db()
            next_lit = None
            while len(self._trail_lim) < len(assumptions):
                assumption = assumptions[len(self._trail_lim)]
                value = self._value(assumption)
                if value == _TRUE:
                    self._new_decision_level()  # an empty level keeps levels aligned
                elif value == _FALSE:
                    self._core = self._analyze_final(assumption)
                    return False
                else:
                    next_lit = assumption
                    break
            while next_lit is None and not self._order.is_empty():
                var = self._order.pop_max()
                if self._assigns[var] == _UNDEF:
                    next_lit = var if self._polarity[var] else -var
                    stats.decisions += 1
            if next_lit is None:
                self._model = list(self._assigns)
                return True
            self._new_decision_level()
            self._enqueue(next_lit, None)
