"""Tests for the incremental solving protocol of the arena SAT kernel.

Covers activation-literal scopes (removable clauses, recycling and
retirement, learnt purging), deferred clause removal, the
assumption-trail reuse machinery, and a randomized differential check of
the whole incremental protocol against fresh from-scratch solves of the
live clause set with the reference :class:`~repro.sat.solver.Solver`.
"""

import random

import pytest

from repro.sat import ArenaSolver, Solver, SolverError


class TestActivationScopes:
    def test_release_removes_the_group(self):
        solver = ArenaSolver()
        solver.ensure_var(1)
        act = solver.new_activation()
        solver.add_guarded(act, [1])
        assert not solver.solve([act, -1])
        solver.release(act)
        with pytest.raises(SolverError, match="not an active activation"):
            solver.add_guarded(act, [1])
        assert solver.solve([-1])  # the clause is physically gone

    def test_activation_vars_are_recycled(self):
        solver = ArenaSolver()
        solver.ensure_var(4)
        first = solver.new_activation()
        solver.add_guarded(first, [1, 2])
        solver.solve([first, -1])
        solver.release(first)
        second = solver.new_activation()
        assert second == first  # recycled, no new variable
        assert solver.stats.activation_vars_recycled == 1
        # The recycled guard starts clean.
        solver.add_guarded(second, [3])
        assert solver.solve([second, -1, -2])
        assert not solver.solve([second, -3])

    def test_activation_var_retired_when_fixed_at_level_zero(self):
        solver = ArenaSolver()
        solver.ensure_var(1)
        solver.add_clause([1])
        act = solver.new_activation()
        # (-act | -1) with 1 fixed true at level 0 simplifies to unit -act.
        solver.add_guarded(act, [-1])
        solver.release(act)
        assert solver.stats.activation_vars_retired == 1
        replacement = solver.new_activation()
        assert replacement != act

    def test_release_purges_dependent_learnts(self):
        # Build a scope whose clauses force a conflict under assumptions,
        # so the solver learns clauses mentioning the activation literal;
        # after release + recycling, the new group must not be affected.
        solver = ArenaSolver()
        solver.ensure_var(6)
        solver.add_clause([1, 2])
        solver.add_clause([-2, 3])
        act = solver.new_activation()
        solver.add_guarded(act, [-3, 4])
        solver.add_guarded(act, [-3, -4])
        assert not solver.solve([act, -1])
        solver.release(act)
        act2 = solver.new_activation()
        assert act2 == act
        solver.add_guarded(act2, [5])
        assert solver.solve([act2, -1])  # no stale learnt blocks this
        assert solver.get_model()[5] is True

    def test_remove_guarded_deferred_while_trail_live(self):
        solver = ArenaSolver()
        solver.ensure_var(3)
        act = solver.new_activation()
        _, strong = solver.add_guarded(act, [1])
        _, weak = solver.add_guarded(act, [1, 2])
        assert solver.solve([act])  # leaves a reusable trail behind
        solver.remove_guarded(act, weak)  # deferred: trail is live
        assert not solver.solve([act, -1])  # still correct
        assert solver.solve([-1, -2])  # weak clause eventually detached


class TestTrailReuse:
    def test_reuse_counter_grows_with_shared_prefixes(self):
        solver = ArenaSolver()
        solver.ensure_var(6)
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve([1, 4])
        assert solver.solve([1, 5])
        assert solver.solve([1, 6])
        assert solver.stats.assumption_levels_reused >= 2

    def test_answers_unchanged_across_reuse(self):
        solver = ArenaSolver()
        solver.ensure_var(4)
        solver.add_clause([-1, 2])
        solver.add_clause([-1, -3])
        assert solver.solve([1, 2])
        assert not solver.solve([1, 3])
        assert solver.solve([1, -3])
        with pytest.raises(SolverError):
            solver.unsat_core()  # last call was SAT
        assert not solver.solve([1, 3])
        core = solver.unsat_core()
        assert set(core) <= {1, 3} and core

    def test_clause_addition_flushes_reused_trail(self):
        solver = ArenaSolver()
        solver.ensure_var(3)
        assert solver.solve([1, 2])
        solver.add_clause([-1, -2])  # must invalidate the kept trail
        assert not solver.solve([1, 2])
        assert solver.solve([1, -2])


class TestDifferentialSoundness:
    """The incremental protocol must agree with fresh from-scratch solves."""

    @staticmethod
    def _fresh_answer(clauses, assumptions):
        solver = Solver()
        solver.ensure_var(12)
        for clause in clauses:
            solver.add_clause(clause)
        return solver.solve(assumptions)

    def test_randomized_incremental_vs_fresh(self):
        rng = random.Random(20240707)
        num_vars = 10
        incremental = ArenaSolver()
        incremental.ensure_var(num_vars)
        permanent = []
        scopes = {}  # act -> list of clauses

        for step in range(400):
            action = rng.random()
            if action < 0.25:
                clause = [
                    rng.choice([1, -1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 3))
                ]
                permanent.append(clause)
                incremental.add_clause(clause)
            elif action < 0.45:
                act = incremental.new_activation()
                scopes[act] = []
                for _ in range(rng.randint(1, 3)):
                    clause = [
                        rng.choice([1, -1]) * rng.randint(1, num_vars)
                        for _ in range(rng.randint(1, 3))
                    ]
                    scopes[act].append(clause)
                    incremental.add_guarded(act, clause)
            elif action < 0.6 and scopes:
                act = rng.choice(sorted(scopes))
                del scopes[act]
                incremental.release(act)
            else:
                assumed_acts = [
                    act for act in sorted(scopes) if rng.random() < 0.5
                ]
                literal_assumptions = sorted(
                    {
                        rng.choice([1, -1]) * rng.randint(1, num_vars)
                        for _ in range(rng.randint(0, 3))
                    },
                    key=abs,
                )
                # Skip contradictory assumption sets (x and -x).
                if any(-lit in literal_assumptions for lit in literal_assumptions):
                    continue
                live = list(permanent)
                for act in assumed_acts:
                    live.extend(scopes[act])
                expected = self._fresh_answer(live, literal_assumptions)
                got = incremental.solve(assumed_acts + literal_assumptions)
                assert got == expected, f"divergence at step {step}"
                if got:
                    model = incremental.get_model()
                    for clause in live:
                        assert any(
                            model.get(abs(lit), lit < 0) == (lit > 0)
                            for lit in clause
                        ), f"model violates clause {clause} at step {step}"
