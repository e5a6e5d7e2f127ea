"""Unit and property tests for the reference CDCL SAT solver.

The solver is validated three ways: hand-written scenarios for every API
feature, randomized cross-checks against brute-force enumeration
(hypothesis), and structural checks on models and assumption cores.
"""

import itertools
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import Cube
from repro.sat import ArenaSolver, Solver, SolverError, ResourceBudgetExceeded


def brute_force_satisfiable(num_vars, clauses):
    """Reference implementation by enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause) for clause in clauses):
            return True
    return False


def clause_strategy(max_var=6, max_len=4):
    literal = st.integers(min_value=-max_var, max_value=max_var).filter(lambda x: x != 0)
    return st.lists(literal, min_size=1, max_size=max_len)


def cnf_strategy(max_var=6, max_clauses=20):
    return st.lists(clause_strategy(max_var), min_size=0, max_size=max_clauses)


class TestBasicSolving:
    def test_empty_formula_is_sat(self):
        assert Solver().solve() is True

    def test_single_unit(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.solve() is True
        assert solver.get_model()[1] is True

    def test_contradictory_units(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        assert solver.solve() is False

    def test_simple_unsat(self):
        solver = Solver()
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            solver.add_clause(clause)
        assert solver.solve() is False

    def test_implication_chain(self):
        solver = Solver()
        for i in range(1, 20):
            solver.add_clause([-i, i + 1])
        solver.add_clause([1])
        assert solver.solve() is True
        assert solver.get_model()[20] is True

    def test_pigeonhole_3_into_2_unsat(self):
        # Pigeon i in hole j -> variable 2*(i-1)+j, i in 1..3, j in 1..2.
        def var(i, j):
            return 2 * (i - 1) + j

        solver = Solver()
        for i in (1, 2, 3):
            solver.add_clause([var(i, 1), var(i, 2)])
        for j in (1, 2):
            for i1, i2 in itertools.combinations((1, 2, 3), 2):
                solver.add_clause([-var(i1, j), -var(i2, j)])
        assert solver.solve() is False

    def test_tautological_clause_ignored(self):
        solver = Solver()
        solver.add_clause([1, -1])
        solver.add_clause([-2])
        assert solver.solve() is True
        assert solver.get_model()[2] is False

    def test_duplicate_literals_collapsed(self):
        solver = Solver()
        solver.add_clause([3, 3, 3])
        assert solver.solve() is True
        assert solver.get_model()[3] is True

    def test_inconsistency_at_level_zero_is_permanent(self):
        solver = Solver()
        assert solver.add_clause([1]) is True
        assert solver.add_clause([-1]) is False
        assert solver.add_clause([2, 3]) is False
        assert solver.solve([2]) is False
        assert solver.unsat_core() == []

    def test_invalid_literal_rejected(self):
        with pytest.raises(SolverError):
            Solver().add_clause([0])

    def test_invalid_variable_index_rejected(self):
        with pytest.raises(SolverError, match="must be positive"):
            Solver().ensure_var(0)

    def test_no_removable_clauses_or_seeding(self):
        # The witness checker's kernel is plain: clauses are only ever added.
        for name in ("new_activation", "add_guarded", "remove_guarded", "release", "set_seed"):
            assert not hasattr(Solver, name), name


class TestModels:
    def test_model_satisfies_all_clauses(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [2, 3]]
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is True
        model = solver.get_model()
        for clause in clauses:
            assert any(model.get(abs(l), False) == (l > 0) for l in clause)

    def test_model_unavailable_after_unsat(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        solver.solve()
        with pytest.raises(SolverError):
            solver.get_model()

    def test_model_of_negative_unit(self):
        solver = Solver()
        solver.add_clause([-4])
        solver.solve()
        assert solver.get_model()[4] is False

    def test_model_literals_projection(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-2])
        solver.ensure_var(3)
        solver.solve()
        assert solver.model_literals([2, 1]) == (-2, 1)
        assert Cube(solver.model_literals([1, 2])) == Cube([1, -2])


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        assert solver.solve([1]) is True
        assert solver.get_model()[2] is True
        assert solver.solve([-1]) is True

    def test_unsat_under_assumptions_only(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve([1, -3]) is False
        assert solver.solve() is True  # still satisfiable without assumptions

    def test_core_is_subset_of_assumptions(self):
        solver = Solver()
        solver.add_clause([-1, -2])
        assert solver.solve([1, 2, 3]) is False
        core = solver.unsat_core()
        assert set(core) <= {1, 2, 3}
        assert set(core) >= {1, 2}  # 3 is irrelevant

    def test_core_excludes_irrelevant_assumption(self):
        solver = Solver()
        solver.add_clause([-5])
        assert solver.solve([5, 7]) is False
        assert solver.unsat_core() == [5]

    def test_core_unavailable_after_sat(self):
        solver = Solver()
        solver.solve([1])
        with pytest.raises(SolverError):
            solver.unsat_core()

    def test_conflicting_assumptions(self):
        solver = Solver()
        solver.ensure_var(1)
        assert solver.solve([1, -1]) is False
        assert set(solver.unsat_core()) <= {1, -1}

    def test_empty_core_when_formula_unsat(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve([2]) is False
        assert solver.unsat_core() == []

    def test_invalid_assumption_literal(self):
        with pytest.raises(SolverError):
            Solver().solve([0])

    def test_core_is_really_unsat(self):
        solver = Solver()
        solver.add_clause([-1, -2, -3])
        solver.add_clause([-1, 3])
        assert solver.solve([1, 2, 3, 4]) is False
        core = solver.unsat_core()
        # Re-checking with only the core assumptions must still be UNSAT.
        assert solver.solve(core) is False


class TestIncremental:
    def test_add_clauses_between_solves(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve() is True
        solver.add_clause([-1])
        assert solver.solve() is True
        assert solver.get_model()[2] is True
        solver.add_clause([-2])
        assert solver.solve() is False

    def test_many_incremental_queries_with_activation_literals(self):
        solver = Solver()
        solver.ensure_var(10)
        # chain: x_i -> x_{i+1}
        for i in range(1, 10):
            solver.add_clause([-i, i + 1])
        for round_index in range(30):
            act = solver.new_var()
            solver.add_clause([-act, -10])
            assert solver.solve([act, 1]) is False
            solver.add_clause([-act])  # retire
            assert solver.solve([1]) is True

    def test_solve_calls_counted(self):
        solver = Solver()
        solver.add_clause([1])
        solver.solve()
        solver.solve()
        assert solver.stats.solve_calls == 2

    def test_stats_dictionary(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.solve()
        stats = asdict(solver.stats)
        assert stats["solve_calls"] == 1
        assert "conflicts" in stats and "decisions" in stats


class TestBudget:
    def test_budget_exhaustion_raises(self):
        solver = Solver()
        # A moderately hard pigeonhole instance: 5 pigeons into 4 holes.
        def var(i, j):
            return 4 * (i - 1) + j

        for i in range(1, 6):
            solver.add_clause([var(i, j) for j in range(1, 5)])
        for j in range(1, 5):
            for i1, i2 in itertools.combinations(range(1, 6), 2):
                solver.add_clause([-var(i1, j), -var(i2, j)])
        with pytest.raises(ResourceBudgetExceeded):
            solver.solve(conflict_budget=3)

    def test_solve_limited_returns_none(self):
        solver = Solver()
        def var(i, j):
            return 4 * (i - 1) + j

        for i in range(1, 6):
            solver.add_clause([var(i, j) for j in range(1, 5)])
        for j in range(1, 5):
            for i1, i2 in itertools.combinations(range(1, 6), 2):
                solver.add_clause([-var(i1, j), -var(i2, j)])
        assert solver.solve_limited(conflict_budget=3) is None

    def test_budget_large_enough_still_answers(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(conflict_budget=1000) is True


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(cnf_strategy())
    def test_verdict_matches_enumeration(self, clauses):
        solver = Solver()
        solver.ensure_var(6)
        for clause in clauses:
            solver.add_clause(clause)
        expected = brute_force_satisfiable(6, clauses)
        assert solver.solve() == expected

    @settings(max_examples=40, deadline=None)
    @given(cnf_strategy(), st.lists(st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0), max_size=3))
    def test_assumptions_match_enumeration(self, clauses, assumptions):
        solver = Solver()
        solver.ensure_var(6)
        for clause in clauses:
            solver.add_clause(clause)
        augmented = clauses + [[a] for a in assumptions]
        expected = brute_force_satisfiable(6, augmented)
        assert solver.solve(assumptions) == expected

    @settings(max_examples=40, deadline=None)
    @given(cnf_strategy())
    def test_models_are_genuine(self, clauses):
        solver = Solver()
        solver.ensure_var(6)
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve():
            model = solver.get_model()
            for clause in clauses:
                simplified = {l for l in clause}
                if any(-l in simplified for l in simplified):
                    continue  # tautology never added
                assert any(model.get(abs(l), False) == (l > 0) for l in clause)

    @settings(max_examples=30, deadline=None)
    @given(cnf_strategy(max_var=5), st.lists(
        st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0),
        min_size=1, max_size=4, unique_by=abs))
    def test_cores_are_sound(self, clauses, assumptions):
        solver = Solver()
        solver.ensure_var(5)
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve(assumptions) is False:
            core = solver.unsat_core()
            assert set(core) <= set(assumptions)
            # The core alone (as units) must already be inconsistent with the formula.
            augmented = clauses + [[a] for a in core]
            assert not brute_force_satisfiable(5, augmented)


def _random_cnf(rng, num_vars, num_clauses, max_len=4):
    return [
        [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, max_len))]
        for _ in range(num_clauses)
    ]


def _random_3sat(rng, num_vars, ratio=4.26):
    return [
        [rng.choice([-1, 1]) * var for var in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(int(ratio * num_vars))
    ]


def _satisfies(model, clauses):
    return all(any(model.get(abs(l), False) == (l > 0) for l in clause) for clause in clauses)


class TestAgainstArenaKernel:
    """The reference solver and the engines' arena kernel on the same queries."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_incremental_queries(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 40)
        reference, arena = Solver(), ArenaSolver()
        reference.ensure_var(num_vars)
        arena.ensure_var(num_vars)
        clauses = []
        for _ in range(12):
            # Clauses arrive between solves, up to about 4.5 per variable.
            for clause in _random_cnf(rng, num_vars, rng.randint(0, num_vars * 3 // 8 + 1)):
                clauses.append(clause)
                reference.add_clause(clause)
                arena.add_clause(clause)
            assumptions = [
                rng.choice([-1, 1]) * var
                for var in rng.sample(range(1, num_vars + 1), rng.randint(0, min(5, num_vars)))
            ]
            verdict = reference.solve(assumptions)
            assert arena.solve(assumptions) == verdict
            if verdict:
                model = reference.get_model()
                assert _satisfies(model, clauses + [[lit] for lit in assumptions])
                continue
            # Each kernel's core is an unsatisfiable core for the other.
            core, arena_core = reference.unsat_core(), arena.unsat_core()
            assert set(core) <= set(assumptions)
            assert arena.solve(core) is False
            assert reference.solve(arena_core) is False


class TestLearntClauses:
    @pytest.mark.parametrize("seed", range(20))
    def test_learnt_clauses_are_implied(self, seed):
        rng = random.Random(seed)
        clauses = _random_3sat(rng, 50)
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve([rng.choice([-1, 1]) * var for var in rng.sample(range(1, 51), 3)])
        learnts = solver._learnts
        assert learnts and solver.stats.learnt_clauses == len(learnts)
        # A learnt clause follows from the clauses alone, not from the
        # assumptions: the clauses and its negation are unsatisfiable.
        checker = ArenaSolver()
        for clause in clauses:
            checker.add_clause(clause)
        for learnt in learnts:
            assert checker.solve([-lit for lit in learnt]) is False, learnt

    def test_reduction_keeps_answers(self):
        rng = random.Random(3)
        clauses = _random_3sat(rng, 170)
        solver, arena = Solver(), ArenaSolver()
        for clause in clauses:
            solver.add_clause(clause)
            arena.add_clause(clause)
        for _ in range(3):
            assumptions = [rng.choice([-1, 1]) * var for var in rng.sample(range(1, 171), 4)]
            verdict = solver.solve(assumptions)
            assert verdict == arena.solve(assumptions)
            if verdict:
                assert _satisfies(solver.get_model(), clauses + [[l] for l in assumptions])
        assert solver.stats.removed_clauses > 0
        assert len(solver._learnts) == solver.stats.learnt_clauses - solver.stats.removed_clauses
