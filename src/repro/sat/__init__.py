"""From-scratch CDCL SAT solvers.

The paper's IC3 implementations sit on MiniSat-class incremental solvers;
this package provides its own: two-watched-literal unit
propagation, first-UIP clause learning with minimisation, VSIDS decision
ordering with phase saving, Luby restarts, learnt-clause reduction,
solving under assumptions, model extraction, and assumption cores (the
``analyzeFinal`` of MiniSat) which IC3 uses to shrink predecessor cubes
and accelerate generalization.

Every engine runs :class:`ArenaSolver`, a thin wrapper around the
flat-arena kernel in C (``kernel.c``, compiled on first import by
:mod:`repro.sat.build`), and calls it directly: its activation literals
are the removable clause scopes IC3's frame managers need
(``new_activation`` / ``add_guarded`` / ``remove_guarded`` /
``release``), and the callers count and time their solves in
:class:`repro.core.stats.IC3Stats`.  :class:`Solver` is a plain
pure-Python CDCL without removable clauses: the kernel of the
independent witness checker, and the from-scratch oracle whose solves
of the live clause set the arena kernel's answers are tested against.
"""

from repro.sat.solver import Solver, SolverStats
from repro.sat.arena import ArenaClauseRef, ArenaSolver
from repro.sat.exceptions import SolverError, ResourceBudgetExceeded
from repro.sat.luby import luby

__all__ = [
    "Solver",
    "SolverStats",
    "ArenaSolver",
    "ArenaClauseRef",
    "SolverError",
    "ResourceBudgetExceeded",
    "luby",
]
