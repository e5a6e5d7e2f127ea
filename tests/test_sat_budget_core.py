"""Edge cases of ``Solver.solve_limited`` budgets and ``unsat_core``.

The happy paths are covered by test_sat_solver.py / test_sat_luby.py;
these tests pin down the corners IC3 relies on: what exactly happens when
a conflict budget runs out mid-search, and what the assumption core looks
like for empty (level-0) conflicts and assumption-only conflicts.
"""

import pytest

from repro.sat.exceptions import ResourceBudgetExceeded, SolverError
from repro.sat.solver import Solver


def pigeonhole(holes):
    """holes+1 pigeons into ``holes`` holes: small but conflict-heavy UNSAT."""
    solver = Solver()

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    for pigeon in range(holes + 1):
        solver.add_clause([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        for first in range(holes + 1):
            for second in range(first + 1, holes + 1):
                solver.add_clause([-var(first, hole), -var(second, hole)])
    return solver


class TestBudgetExhaustion:
    def test_solve_limited_returns_none(self):
        solver = pigeonhole(7)
        assert solver.solve_limited(conflict_budget=5) is None

    def test_budget_is_respected_closely(self):
        solver = pigeonhole(7)
        solver.solve_limited(conflict_budget=5)
        # The search stops at the first restart boundary at/after the budget.
        assert solver.stats.conflicts == 5

    def test_solve_raises_on_exhaustion(self):
        solver = pigeonhole(7)
        with pytest.raises(ResourceBudgetExceeded):
            solver.solve(conflict_budget=5)

    def test_no_model_and_no_core_after_exhaustion(self):
        solver = pigeonhole(7)
        assert solver.solve_limited(conflict_budget=5) is None
        with pytest.raises(SolverError):
            solver.get_model()
        with pytest.raises(SolverError):
            solver.unsat_core()

    def test_solver_usable_after_exhaustion(self):
        solver = pigeonhole(6)
        assert solver.solve_limited(conflict_budget=3) is None
        # A later unbudgeted call on the same instance still concludes.
        assert solver.solve_limited() is False

    def test_zero_budget_stops_immediately_on_conflicty_instance(self):
        solver = pigeonhole(7)
        assert solver.solve_limited(conflict_budget=0) is None

    def test_budget_larger_than_needed_is_harmless(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve_limited(conflict_budget=10_000) is True

    def test_learnt_clauses_survive_budgeted_attempts(self):
        solver = pigeonhole(6)
        total = 0
        while solver.solve_limited(conflict_budget=20) is None:
            assert solver.stats.conflicts >= total  # monotone progress
            total = solver.stats.conflicts
        assert solver.solve_limited() is False


class TestUnsatCoreEdgeCases:
    def test_empty_core_when_clauses_alone_unsat(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        # Even with assumptions, the conflict owes nothing to them.
        assert solver.solve_limited([2, -3]) is False
        assert solver.unsat_core() == []

    def test_assumption_only_conflict(self):
        solver = Solver()
        solver.ensure_var(1)
        assert solver.solve_limited([1, -1]) is False
        assert set(solver.unsat_core()) == {1, -1}

    def test_core_through_clause_chain(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve_limited([1, -3]) is False
        core = solver.unsat_core()
        assert set(core) <= {1, -3}
        assert core  # something must be blamed

    def test_core_excludes_irrelevant_assumptions(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        assert solver.solve_limited([1, -2, 5, -6]) is False
        core = set(solver.unsat_core())
        assert core <= {1, -2}
        assert 5 not in core and -6 not in core

    def test_core_is_itself_unsat(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-1, -2])
        assert solver.solve_limited([1, 3, 4]) is False
        core = solver.unsat_core()
        replay = Solver()
        replay.add_clause([-1, 2])
        replay.add_clause([-1, -2])
        assert replay.solve_limited(core) is False

    def test_no_core_after_sat(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve_limited([1]) is True
        with pytest.raises(SolverError):
            solver.unsat_core()

    def test_core_resets_between_calls(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        assert solver.solve_limited([1, -2]) is False
        assert solver.unsat_core()
        assert solver.solve_limited([1, 2]) is True
        with pytest.raises(SolverError):
            solver.unsat_core()
