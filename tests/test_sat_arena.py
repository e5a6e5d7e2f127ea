"""Tests for the flat-arena CDCL kernel.

The arena solver must be behaviourally indistinguishable from the
reference :class:`repro.sat.solver.Solver` — same verdicts, sound
models, usable cores, identical activation-literal semantics — while
storing the clause database in flat integer arenas.  The differential
tests here drive both kernels through the same randomized incremental
workload (the harness of ``test_sat_context.py``, pointed at the arena).
"""

import itertools
import random

import pytest

from repro.sat import (
    ArenaClauseRef,
    ArenaSolver,
    ResourceBudgetExceeded,
    Solver,
    SolverError,
)


def brute_force_satisfiable(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses):
            return True
    return False


def _pigeonhole(solver, pigeons=5, holes=4):
    def var(i, j):
        return holes * (i - 1) + j

    for i in range(1, pigeons + 1):
        solver.add_clause([var(i, j) for j in range(1, holes + 1)])
    for j in range(1, holes + 1):
        for i1, i2 in itertools.combinations(range(1, pigeons + 1), 2):
            solver.add_clause([-var(i1, j), -var(i2, j)])


class TestArenaBasics:
    def test_empty_is_sat(self):
        assert ArenaSolver().solve() is True

    def test_unit_propagation_fixes_model(self):
        solver = ArenaSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        assert solver.solve() is True
        model = solver.get_model()
        assert model[1] is True and model[2] is True

    def test_contradictory_units_unsat(self):
        solver = ArenaSolver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        assert solver.solve() is False

    def test_tautology_ignored(self):
        solver = ArenaSolver()
        assert solver.add_clause([1, -1]) is True
        assert solver.solve() is True

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            ArenaSolver().add_clause([0])

    def test_pigeonhole_unsat(self):
        solver = ArenaSolver()
        _pigeonhole(solver, pigeons=4, holes=3)
        assert solver.solve() is False

    def test_assumptions_and_core(self):
        solver = ArenaSolver()
        solver.ensure_var(3)
        solver.add_clause([-1, -2])
        assert solver.solve([1, 2]) is False
        core = solver.unsat_core()
        assert set(core) <= {1, 2} and core
        # The core alone must still be unsatisfiable.
        assert solver.solve(core) is False
        # Dropping one assumption restores satisfiability.
        assert solver.solve([1]) is True

    def test_incremental_reuse_across_solves(self):
        solver = ArenaSolver()
        solver.add_clause([1, 2])
        assert solver.solve([-1]) is True
        solver.add_clause([-2, 3])
        assert solver.solve([-1]) is True
        model = solver.get_model()
        assert model[2] is True and model[3] is True
        assert solver.stats.solve_calls == 2

    def test_stats_expose_kernel_counters(self):
        solver = ArenaSolver()
        solver.add_clause([1, 2, 3])
        solver.add_clause([-1, 2])
        solver.solve([-2])
        stats = solver.stats.as_dict()
        for key in (
            "watch_traversals",
            "blocker_hits",
            "literal_pool_bytes",
            "arena_compactions",
        ):
            assert key in stats
        assert solver.stats.literal_pool_bytes > 0

    def test_budget_exhaustion_raises(self):
        solver = ArenaSolver(restart_base=1)
        _pigeonhole(solver)
        with pytest.raises(ResourceBudgetExceeded):
            solver.solve(conflict_budget=3)

    def test_solve_limited_returns_none(self):
        solver = ArenaSolver(restart_base=1)
        _pigeonhole(solver)
        assert solver.solve_limited(conflict_budget=3) is None
        # The budget verdict must not poison later unrestricted solves.
        assert solver.solve() is False


class TestActivationLayer:
    def test_guarded_clause_active_only_under_assumption(self):
        solver = ArenaSolver()
        solver.ensure_var(2)
        act = solver.new_activation()
        solver.add_guarded(act, [1])
        solver.add_guarded(act, [2])
        assert solver.solve([act, -1]) is False
        assert solver.solve([-1]) is True  # group not selected

    def test_remove_guarded_disables_one_clause(self):
        solver = ArenaSolver()
        solver.ensure_var(2)
        act = solver.new_activation()
        _, handle = solver.add_guarded(act, [1, 2])
        assert isinstance(handle, ArenaClauseRef)
        solver.remove_guarded(act, handle)
        assert solver.solve([act, -1, -2]) is True
        # Removal is idempotent: the counter must not advance again.
        assert solver.stats.guarded_clauses_freed == 1
        solver.remove_guarded(act, handle)
        assert solver.stats.guarded_clauses_freed == 1

    def test_remove_guarded_implied_clause_keeps_verdicts(self):
        solver = ArenaSolver()
        solver.ensure_var(3)
        act = solver.new_activation()
        _, _strong = solver.add_guarded(act, [1])
        _, weak = solver.add_guarded(act, [1, 2])
        # The weak clause is implied by the strong one: removable.
        solver.remove_guarded(act, weak)
        assert solver.solve([act, -1]) is False
        assert solver.solve([-1, -2]) is True  # weak clause really gone

    def test_remove_guarded_rejects_foreign_handle(self):
        solver = ArenaSolver()
        solver.ensure_var(2)
        act = solver.new_activation()
        other = Solver()
        other.ensure_var(2)
        other_act = other.new_activation()
        _, foreign = other.add_guarded(other_act, [1, 2])
        with pytest.raises(SolverError, match="does not belong"):
            solver.remove_guarded(act, foreign)

    def test_release_frees_group_and_recycles_var(self):
        solver = ArenaSolver()
        solver.ensure_var(2)
        act = solver.new_activation()
        solver.add_guarded(act, [1])
        solver.release(act)
        assert solver.solve([-1]) is True
        # A released (non-retired) activation var is handed out again.
        act2 = solver.new_activation()
        assert act2 == act
        assert solver.stats.activation_vars_recycled == 1

    def test_removed_clauses_never_resurface_after_many_groups(self):
        solver = ArenaSolver()
        solver.ensure_var(4)
        for _ in range(50):
            act = solver.new_activation()
            solver.add_guarded(act, [1, 2])
            solver.add_guarded(act, [3, 4])
            assert solver.solve([act, -1, -3]) is True
            solver.release(act)
        assert solver.solve([-1, -2, -3, -4]) is True


class TestCompaction:
    def test_churn_triggers_compaction_and_preserves_answers(self):
        solver = ArenaSolver()
        oracle = Solver()
        num_vars = 12
        solver.ensure_var(num_vars)
        oracle.ensure_var(num_vars)
        rng = random.Random(77)
        # Permanent skeleton both solvers share.
        for _ in range(10):
            clause = [
                rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(3)
            ]
            solver.add_clause(clause)
            oracle.add_clause(clause)
        # Churn: large short-lived guarded groups leave dead words behind.
        for round_no in range(60):
            act_a = solver.new_activation()
            act_o = oracle.new_activation()
            for _ in range(40):
                clause = [
                    rng.choice([-1, 1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(2, 5))
                ]
                solver.add_guarded(act_a, clause)
                oracle.add_guarded(act_o, clause)
            assumption = rng.choice([-1, 1]) * rng.randint(1, num_vars)
            assert solver.solve([act_a, assumption]) == oracle.solve(
                [act_o, assumption]
            )
            solver.release(act_a)
            oracle.release(act_o)
        assert solver.stats.arena_compactions >= 1
        # Post-compaction the solvers still agree on fresh queries.
        for _ in range(20):
            assumptions = [
                rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, num_vars + 1), 3)
            ]
            assert solver.solve(assumptions) == oracle.solve(assumptions)


class TestDifferentialAgainstDefault:
    """The randomized incremental harness, arena vs reference solver."""

    @pytest.mark.parametrize("seed", [20240707, 20240708, 20240709])
    def test_randomized_incremental_agreement(self, seed):
        rng = random.Random(seed)
        ref, arena = Solver(), ArenaSolver()
        num_vars = 10
        ref.ensure_var(num_vars)
        arena.ensure_var(num_vars)
        groups = []  # [act_ref, act_arena, [(handle_ref, handle_arena, lits)]]

        def random_clause():
            return [
                rng.choice([-1, 1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(1, 4))
            ]

        for step in range(400):
            roll = rng.random()
            if roll < 0.25 or not groups:
                groups.append([ref.new_activation(), arena.new_activation(), []])
            elif roll < 0.45:
                group = rng.choice(groups)
                lits = random_clause()
                _, h_ref = ref.add_guarded(group[0], lits)
                _, h_arena = arena.add_guarded(group[1], lits)
                group[2].append((h_ref, h_arena, lits))
            elif roll < 0.55 and any(g[2] for g in groups):
                group = rng.choice([g for g in groups if g[2]])
                h_ref, h_arena, _ = group[2].pop(rng.randrange(len(group[2])))
                if h_ref is not None:
                    ref.remove_guarded(group[0], h_ref)
                if h_arena is not None:
                    arena.remove_guarded(group[1], h_arena)
            elif roll < 0.6:
                group = groups.pop(rng.randrange(len(groups)))
                ref.release(group[0])
                arena.release(group[1])
            else:
                if rng.random() < 0.3:
                    lits = random_clause()
                    assert ref.add_clause(lits) == arena.add_clause(lits)
                active = rng.sample(groups, rng.randint(0, len(groups)))
                extra = [
                    rng.choice([-1, 1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(0, 2))
                ]
                verdict_ref = ref.solve([g[0] for g in active] + extra)
                verdict_arena = arena.solve([g[1] for g in active] + extra)
                assert verdict_ref == verdict_arena, (seed, step)
                if verdict_arena:
                    model = arena.get_model()
                    for group in active:
                        for _, _, lits in group[2]:
                            assert any(
                                model.get(abs(l), False) == (l > 0) for l in lits
                            ), (seed, step, lits)
                    for lit in extra:
                        assert model.get(abs(lit), False) == (lit > 0)
                else:
                    core = arena.unsat_core()
                    assert arena.solve(core) is False, (seed, step)
        # Trail reuse must have kicked in somewhere over 400 steps.
        assert arena.stats.solve_calls > 0

    def test_trail_reuse_counter_advances(self):
        arena = ArenaSolver()
        arena.ensure_var(6)
        arena.add_clause([1, 2])
        arena.add_clause([-2, 3])
        for _ in range(5):
            assert arena.solve([1, 2, 4]) is True
        assert arena.stats.assumption_levels_reused > 0


class TestAgainstBruteForce:
    def test_verdicts_match_enumeration(self):
        rng = random.Random(424242)
        for _trial in range(150):
            num_vars = rng.randint(2, 5)
            clauses = [
                [
                    rng.choice([-1, 1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 3))
                ]
                for _ in range(rng.randint(1, 10))
            ]
            solver = ArenaSolver()
            solver.ensure_var(num_vars)
            ok = True
            for clause in clauses:
                ok = solver.add_clause(clause) and ok
            verdict = ok and solver.solve()
            assert verdict == brute_force_satisfiable(num_vars, clauses), clauses

