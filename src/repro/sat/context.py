"""Incremental SAT-context layer.

A :class:`SatContext` is one persistent incremental solver plus the
bookkeeping that model-checking engines need around it: activation-literal
*scopes* for removable clause groups, timed and counted ``solve`` calls,
and clause-loading accounting.  (The clauses-shared vs clauses-duplicated
comparison between frame substrates lives in
:class:`repro.core.stats.IC3Stats`, where the manifest reads it.)

The solver behind every context is the flat-arena production kernel,
:class:`~repro.sat.arena.ArenaSolver`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence

from repro.sat.arena import ArenaSolver


@dataclass
class ContextStats:
    """Counters accumulated over the lifetime of one context."""

    solve_calls: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    solve_time: float = 0.0
    clauses_loaded: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class SatContext:
    """A reusable incremental solving context.

    Wraps one solver instance for the whole lifetime of an engine run;
    callers express clause removability through *scopes* (activation
    literals) instead of creating fresh solvers, and solve under
    assumptions that select which scopes are active.
    """

    def __init__(self, seed: int = 0):
        self.solver = ArenaSolver()
        self.solver.set_seed(seed)
        self.stats = ContextStats()

    # ------------------------------------------------------------------
    # Clause loading
    # ------------------------------------------------------------------
    def load(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Bulk-add permanent clauses (e.g. a transition relation)."""
        ok = True
        for clause in clauses:
            ok = self.solver.add_clause(clause) and ok
            self.stats.clauses_loaded += 1
        return ok

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add one permanent clause."""
        self.stats.clauses_loaded += 1
        return self.solver.add_clause(literals)

    # ------------------------------------------------------------------
    # Scopes (removable clause groups)
    # ------------------------------------------------------------------
    def new_scope(self) -> int:
        """Open a removable clause scope; returns its activation literal."""
        return self.solver.new_activation()

    def add_to_scope(self, act: int, literals: Sequence[int]):
        """Add a clause active only while ``act`` is assumed.

        Returns the stored clause handle (None when simplified away),
        usable with :meth:`remove_from_scope`.
        """
        _, handle = self.solver.add_guarded(act, literals)
        return handle

    def remove_from_scope(self, act: int, handle) -> None:
        """Remove one clause from a scope (caller guarantees implication)."""
        self.solver.remove_guarded(act, handle)

    def release_scope(self, act: int) -> None:
        """Drop a scope's clauses and recycle its activation literal."""
        self.solver.release(act)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Timed, counted solve under assumptions."""
        start = time.perf_counter()
        result = self.solver.solve(assumptions)
        self.stats.solve_time += time.perf_counter() - start
        self.stats.solve_calls += 1
        if result:
            self.stats.sat_answers += 1
        else:
            self.stats.unsat_answers += 1
        return result

    def get_model(self) -> Dict[int, bool]:
        return self.solver.get_model()

    def unsat_core(self) -> List[int]:
        return self.solver.unsat_core()
