"""A from-scratch CDCL SAT solver.

The paper's IC3 implementations sit on MiniSat-class incremental solvers;
this package provides the Python equivalent: two-watched-literal unit
propagation, first-UIP clause learning with minimisation, VSIDS decision
ordering with phase saving, Luby restarts, learnt-clause reduction,
solving under assumptions, model extraction, and assumption cores (the
``analyzeFinal`` of MiniSat) which IC3 uses to shrink predecessor cubes
and accelerate generalization.

Every engine runs :class:`ArenaSolver`, the flat-arena kernel.  The
object-based :class:`Solver` is the reference oracle of the differential
tests and the kernel of the independent witness checker.
"""

from repro.sat.solver import Solver, SolverStats
from repro.sat.arena import ArenaClauseRef, ArenaSolver
from repro.sat.context import ContextStats, SatContext
from repro.sat.exceptions import SolverError, ResourceBudgetExceeded
from repro.sat.luby import luby
from repro.sat.dimacs import parse_dimacs, write_dimacs

__all__ = [
    "Solver",
    "SolverStats",
    "ArenaSolver",
    "ArenaClauseRef",
    "SatContext",
    "ContextStats",
    "SolverError",
    "ResourceBudgetExceeded",
    "luby",
    "parse_dimacs",
    "write_dimacs",
]
