"""Tests for the flat-arena CDCL kernel.

The arena solver must answer every query as its definition says: a
solve under assumptions is a solve of the permanent clauses plus the
live clauses of every activation group it assumes.  The differential
tests drive it through randomized incremental workloads (clause groups,
removals, releases, mixed assumptions) and compare each answer with a
fresh reference :class:`repro.sat.solver.Solver` loaded with exactly
that clause set: same verdicts, models of every live clause, and cores
that re-solve to UNSAT.
"""

import itertools
import random
from dataclasses import asdict

import pytest

from repro.benchgen import johnson_counter, quick_suite
from repro.core.ic3 import IC3
from repro.harness.configs import config_by_name
from repro.logic import Clause
from repro.obs.tracer import Tracer, install, uninstall
from repro.sat import (
    ArenaClauseRef,
    ArenaSolver,
    ResourceBudgetExceeded,
    Solver,
    SolverError,
)
from repro.sat.arena import MAX_VAR
from repro.ts import TransitionSystem


def brute_force_satisfiable(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses):
            return True
    return False


def _fresh_solve(clauses, assumptions):
    """The verdict of a fresh reference solver on ``clauses`` under ``assumptions``."""
    solver = Solver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve(assumptions)


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
        stats = asdict(solver.stats)
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
        assert solver.solve([act]) is True and solver.get_model()[1] is True

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

    @pytest.mark.parametrize("foreign", [[1, 2], None, 0], ids=["literals", "none", "index"])
    def test_remove_guarded_rejects_non_handle(self, foreign):
        solver = ArenaSolver()
        solver.ensure_var(2)
        act = solver.new_activation()
        solver.add_guarded(act, [1, 2])
        with pytest.raises(SolverError, match="does not belong"):
            solver.remove_guarded(act, foreign)
        assert solver.stats.guarded_clauses_freed == 0

    def test_remove_guarded_rejects_handle_of_another_arena_solver(self):
        solver = ArenaSolver()
        solver.ensure_var(2)
        act = solver.new_activation()
        other = ArenaSolver()
        other.ensure_var(2)
        other_act = other.new_activation()
        for _ in range(3):
            other.add_guarded(other_act, [1, 2])
        _, foreign = other.add_guarded(other_act, [1, 2])
        with pytest.raises(SolverError, match="does not belong"):
            solver.remove_guarded(act, foreign)

    def test_remove_guarded_rejects_handle_of_released_group(self):
        solver = ArenaSolver()
        solver.ensure_var(2)
        act = solver.new_activation()
        _, handle = solver.add_guarded(act, [1, 2])
        solver.release(act)
        recycled = solver.new_activation()
        assert recycled == act
        with pytest.raises(SolverError, match="does not belong"):
            solver.remove_guarded(recycled, handle)
        assert solver.stats.guarded_clauses_freed == 1

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
        num_vars = 12
        solver.ensure_var(num_vars)
        rng = random.Random(77)
        # Permanent skeleton under every query.
        permanent = []
        for _ in range(10):
            clause = [
                rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(3)
            ]
            solver.add_clause(clause)
            permanent.append(clause)
        # Churn: large short-lived guarded groups leave dead words behind.
        for round_no in range(60):
            act = solver.new_activation()
            group = []
            for _ in range(40):
                clause = [
                    rng.choice([-1, 1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(2, 5))
                ]
                solver.add_guarded(act, clause)
                group.append(clause)
            assumption = rng.choice([-1, 1]) * rng.randint(1, num_vars)
            assert solver.solve([act, assumption]) == _fresh_solve(
                permanent + group, [assumption]
            )
            solver.release(act)
        assert solver.stats.arena_compactions >= 1
        # After compaction only the permanent clauses remain.
        for _ in range(20):
            assumptions = [
                rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, num_vars + 1), 3)
            ]
            assert solver.solve(assumptions) == _fresh_solve(permanent, assumptions)


def _differential_walk(seed):
    """The randomized incremental harness, arena vs its definition.

    Drives the arena kernel through 400 steps and compares every solve
    with fresh reference solves of the permanent clauses plus the clauses
    of the assumed groups.  The walk removes arbitrary guarded clauses,
    where ``remove_guarded``'s contract asks for implied ones, so learnt
    clauses derived from a removed clause may survive.  The verdict must
    therefore lie between the two definitions: SAT if the groups' clauses
    ever added are satisfiable, UNSAT if their live clauses are not.  A
    model must satisfy the live clauses; a core must re-solve to UNSAT,
    in the arena and on the clauses ever added to the core's groups.
    Returns the arena solver.
    """
    rng = random.Random(seed)
    arena = ArenaSolver()
    num_vars = 10
    arena.ensure_var(num_vars)
    permanent = []
    groups = []  # [act, live [(handle, lits)], every lits ever added]

    def random_clause():
        return [
            rng.choice([-1, 1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, 4))
        ]

    def clauses(groups, which):
        return permanent + [lits for group in groups for lits in which(group)]

    def live(group):
        return [lits for _, lits in group[1]]

    def ever(group):
        return group[2]

    for step in range(400):
        roll = rng.random()
        if roll < 0.25 or not groups:
            groups.append([arena.new_activation(), [], []])
        elif roll < 0.45:
            group = rng.choice(groups)
            lits = random_clause()
            _, handle = arena.add_guarded(group[0], lits)
            group[1].append((handle, lits))
            group[2].append(lits)
        elif roll < 0.55 and any(g[1] for g in groups):
            group = rng.choice([g for g in groups if g[1]])
            handle, _ = group[1].pop(rng.randrange(len(group[1])))
            if handle is not None:
                arena.remove_guarded(group[0], handle)
        elif roll < 0.6:
            group = groups.pop(rng.randrange(len(groups)))
            arena.release(group[0])
        else:
            if rng.random() < 0.3:
                lits = random_clause()
                permanent.append(lits)
                # False means the permanent clauses are unsatisfiable.
                assert arena.add_clause(lits) or not _fresh_solve(permanent, []), (seed, step)
            active = rng.sample(groups, rng.randint(0, len(groups)))
            extra = [
                rng.choice([-1, 1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(0, 2))
            ]
            verdict = arena.solve([g[0] for g in active] + extra)
            lower = _fresh_solve(clauses(active, ever), extra)
            upper = _fresh_solve(clauses(active, live), extra)
            assert lower <= verdict <= upper, (seed, step)
            if verdict:
                model = arena.get_model()
                for lits in clauses(active, live):
                    assert any(
                        model.get(abs(l), False) == (l > 0) for l in lits
                    ), (seed, step, lits)
                for lit in extra:
                    assert model.get(abs(lit), False) == (lit > 0)
            else:
                core = arena.unsat_core()
                assert arena.solve(core) is False, (seed, step)
                blamed = [group for group in active if group[0] in core]
                core_extra = [lit for lit in core if abs(lit) <= num_vars]
                assert not _fresh_solve(clauses(blamed, ever), core_extra), (seed, step)
    return arena


class TestDifferentialAgainstDefault:
    @pytest.mark.parametrize("seed", [20240707, 20240708, 20240709])
    def test_randomized_incremental_agreement(self, seed):
        arena = _differential_walk(seed)
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



def _search_counters(*solvers):
    """(conflicts, decisions, propagations, learnt_clauses) summed."""
    return tuple(
        sum(getattr(solver.stats, name) for solver in solvers)
        for name in ("conflicts", "decisions", "propagations", "learnt_clauses")
    )


@pytest.fixture
def created_kernels(monkeypatch):
    """Every ArenaSolver constructed while the test runs."""
    created = []
    original = ArenaSolver.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(ArenaSolver, "__init__", init)
    return created


class TestPinnedSearch:
    """Search counters recorded from the pure-Python kernel the C one replaced.

    The C port makes the same decisions and learns the same clauses, so
    any divergence of its search shows up here.  The IC3 runs also pin
    the engine's own counters, so a change above the kernel that alters
    which queries IC3 asks (cube order, model projection, witness reuse)
    shows up too.
    """

    def test_pigeonhole(self):
        solver = ArenaSolver()
        _pigeonhole(solver)
        assert solver.solve() is False
        assert _search_counters(solver) == (28, 38, 297, 23)

    def test_differential_walk(self):
        assert _search_counters(_differential_walk(20240707)) == (0, 176, 454, 0)

    # (sat_calls, consecution_calls, consecution_reuses, lemmas_added,
    #  mic_drop_attempts, prediction_queries, prediction_successes) of the
    # same runs: the whole IC3 search, not just the kernel, is pinned.
    ENGINE_COUNTERS = {
        "RIC3": (152, 122, 165, 24, 50, 0, 0),
        "RIC3-pl": (346, 300, 612, 49, 65, 53, 26),
        "IC3ref": (314, 249, 385, 38, 120, 0, 0),
        "IC3ref-pl": (373, 301, 456, 61, 69, 65, 39),
        "IC3ref-CAV23": (314, 249, 385, 38, 120, 0, 0),
        "ABC-PDR": (405, 344, 440, 52, 128, 0, 0),
    }

    @pytest.mark.parametrize(
        "config, counters",
        [
            ("IC3ref", (20, 171, 5424, 20)),
            ("IC3ref-pl", (24, 93, 6418, 24)),
            ("RIC3", (13, 119, 2497, 13)),
            ("RIC3-pl", (34, 142, 7657, 34)),
            ("IC3ref-CAV23", (20, 176, 5398, 20)),
            ("ABC-PDR", (25, 157, 6511, 25)),
        ],
    )
    def test_ic3_johnson_counter(self, created_kernels, config, counters):
        case = johnson_counter(6, safe=True)
        outcome = IC3(case.aig, config_by_name(config).options).check(time_limit=60)
        assert outcome.result == case.expected
        assert _search_counters(*created_kernels) == counters
        stats = outcome.stats
        assert (
            stats.sat_calls,
            stats.consecution_calls,
            stats.consecution_reuses,
            stats.lemmas_added,
            stats.mic_drop_attempts,
            stats.prediction_queries,
            stats.prediction_successes,
        ) == self.ENGINE_COUNTERS[config]


def _replay(clauses, num_vars, queries):
    """Load ``clauses`` into a fresh kernel and answer ``queries`` in order.

    Returns every verdict with its model or core, and the search counters.
    """
    solver = ArenaSolver()
    solver.ensure_var(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    answers = []
    for assumptions in queries:
        if solver.solve(assumptions):
            answers.append((True, solver.model_literals(range(1, num_vars + 1))))
        else:
            answers.append((False, sorted(solver.unsat_core())))
    return answers, _search_counters(solver)


class TestClauseOrderIndependence:
    """The kernel sorts and deduplicates every clause it is given.

    So a clause set handed over as plain literal lists, in any order and
    with repeated literals, is searched exactly as its canonical form:
    same verdicts, models, cores and search counters.  The frame
    managers rely on this when they load ``TransitionSystem.trans``
    without canonicalising it first.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_duplicated_literals_give_the_same_search(self, seed):
        rng = random.Random(seed)
        num_vars = 24
        canonical = [
            list(Clause(rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(3)))
            for _ in range(80)
        ]
        scrambled = []
        for clause in canonical:
            clause = clause + [rng.choice(clause) for _ in range(rng.randint(0, 2))]
            rng.shuffle(clause)
            scrambled.append(clause)
        queries = [
            [rng.choice([-1, 1]) * var for var in rng.sample(range(1, num_vars + 1), 4)]
            for _ in range(12)
        ]
        expected = _replay(canonical, num_vars, queries)
        assert _replay(scrambled, num_vars, queries) == expected
        assert {verdict for verdict, _ in expected[0]} == {True, False}

    @pytest.mark.parametrize("case", quick_suite(), ids=lambda case: case.name)
    def test_transition_relation_loads_like_its_canonical_clauses(self, case):
        ts = TransitionSystem(case.aig, warn_on_ambiguity=False)
        rng = random.Random(case.name)
        queries = [
            [var if rng.random() < 0.5 else -var for var in ts.latch_vars] + [lit]
            for lit in (ts.bad_lit, -ts.bad_lit)
            for _ in range(4)
        ]
        canonical = [list(Clause(clause)) for clause in ts.trans]
        assert _replay(ts.trans, ts.num_vars, queries) == _replay(
            canonical, ts.num_vars, queries
        )


@pytest.mark.parametrize("kernel", [Solver, ArenaSolver])
class TestDegenerateClauses:
    """Both kernels read a clause as the set of its literals."""

    def test_tautology_constrains_nothing(self, kernel):
        solver = kernel()
        solver.add_clause([2, -1, 1, 2])
        assert solver.solve([-1, -2]) is True
        assert solver.solve([1, 2]) is True

    def test_empty_clause_makes_the_set_unsatisfiable(self, kernel):
        solver = kernel()
        solver.add_clause([1, 2])
        solver.add_clause([])
        assert solver.solve() is False
        assert solver.solve([1]) is False


def _random_cnf(rng, num_vars):
    return [
        [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 3 * num_vars))
    ]


class TestModelLiterals:
    """``model_literals`` against the reference solver and against ``get_model``."""

    @staticmethod
    def _load(solver, num_vars, clauses):
        """Load the CNF and return one more variable, which no clause mentions.

        In the arena kernel it is a released activation, which stays
        unassigned; the reference solver decides it, with its initial
        phase, false.
        """
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        if not isinstance(solver, ArenaSolver):
            return solver.new_var()
        act = solver.new_activation()
        solver.release(act)
        return act

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cnf(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 10)
        clauses = _random_cnf(rng, num_vars)
        arena, oracle = ArenaSolver(), Solver()
        unassigned = self._load(arena, num_vars, clauses)
        assert self._load(oracle, num_vars, clauses) == unassigned
        verdict = arena.solve()
        assert oracle.solve() == verdict
        if not verdict:
            return
        variables = list(range(1, unassigned + 1))
        rng.shuffle(variables)
        variables += variables[: rng.randint(0, len(variables))]  # repeats too
        projections = []
        assert unassigned not in arena.get_model()
        for solver in (arena, oracle):
            model = solver.get_model()
            assert not model.get(unassigned, False)
            projected = solver.model_literals(variables)
            assert projected == tuple(v if model.get(v, False) else -v for v in variables)
            projections.append(projected)
            every = range(1, unassigned + 1)
            values = solver.model_values(every)
            assert tuple(v if value == 1 else -v for v, value in zip(every, values)) == (
                solver.model_literals(every)
            )
        # Each kernel's projection is a model of the CNF for the other.
        assert oracle.solve(list(projections[0]))
        assert arena.solve(list(projections[1]))

    def test_unique_model_projects_identically(self):
        rng = random.Random(7)
        values = {var: rng.random() < 0.5 for var in range(1, 16)}
        units = [[var if value else -var] for var, value in values.items()]
        projections = []
        for solver in (ArenaSolver(), Solver()):
            unassigned = self._load(solver, 15, units)
            assert solver.solve()
            projections.append(solver.model_literals([unassigned, *range(15, 0, -1)]))
        assert projections[0] == projections[1]
        assert projections[0][0] == -16  # unassigned reads as false

    @pytest.mark.parametrize("kind", [ArenaSolver, Solver])
    def test_no_model_before_any_solve(self, kind):
        solver = kind()
        solver.ensure_var(2)
        with pytest.raises(SolverError, match="no model available"):
            solver.model_literals([1, 2])

    @pytest.mark.parametrize("kind", [ArenaSolver, Solver])
    def test_no_model_after_unsat(self, kind):
        solver = kind()
        solver.add_clause([1])
        assert solver.solve() is True
        assert solver.solve([-1]) is False
        with pytest.raises(SolverError, match="no model available"):
            solver.model_literals([1])

    @pytest.mark.parametrize("kind", [ArenaSolver, Solver])
    @pytest.mark.parametrize("var", [0, -1, 4, MAX_VAR + 1])
    def test_out_of_range_variable(self, kind, var):
        solver = kind()
        solver.ensure_var(3)
        assert solver.solve()
        with pytest.raises(SolverError, match=f"variable {var} is not in the last model"):
            solver.model_literals([1, var, 2])
        assert solver.model_literals([]) == ()


class TestModelRanges:
    """A ``range`` projects like the list of its variables, and
    ``model_values`` reads a range of step 1 as one slice of the arena
    model, with the same answers and errors."""

    @staticmethod
    def _solved():
        solver = ArenaSolver()
        for clause in ([1], [-2], [3, 4], [-4]):
            solver.add_clause(clause)
        act = solver.new_activation()  # variable 5, unassigned
        solver.release(act)
        assert solver.solve()
        return solver

    @pytest.mark.parametrize(
        "variables", [range(1, 6), range(2, 4), range(5, 6), range(3, 3), range(1, 6, 2)]
    )
    def test_same_literals_as_the_list(self, variables):
        solver = self._solved()
        assert solver.model_literals(variables) == solver.model_literals(list(variables))

    @pytest.mark.parametrize(
        "variables, bad", [(range(0, 3), 0), (range(4, 7), 6), (range(-1, 2), -1)]
    )
    def test_out_of_range(self, variables, bad):
        solver = self._solved()
        with pytest.raises(SolverError, match=f"variable {bad} is not in the last model"):
            solver.model_literals(variables)

    def test_values(self):
        assert self._solved().model_literals(range(1, 6)) == (1, -2, 3, -4, -5)

    @pytest.mark.parametrize("variables", [range(1, 6), range(2, 4), range(5, 6), range(3, 3)])
    def test_raw_values_read_as_the_literals(self, variables):
        solver = self._solved()
        values = solver.model_values(variables)
        assert bytes(values) == values and len(values) == len(variables)
        literals = tuple(var if value == 1 else -var for var, value in zip(variables, values))
        assert literals == solver.model_literals(variables)

    @pytest.mark.parametrize(
        "variables, bad", [(range(0, 3), 0), (range(4, 7), 6), (range(-1, 2), -1)]
    )
    def test_raw_values_out_of_range(self, variables, bad):
        with pytest.raises(SolverError, match=f"variable {bad} is not in the last model"):
            self._solved().model_values(variables)

    def test_raw_values_need_a_model_and_step_one(self):
        with pytest.raises(SolverError, match="no model available"):
            ArenaSolver().model_values(range(1, 2))
        with pytest.raises(SolverError, match="step 1"):
            self._solved().model_values(range(1, 6, 2))


class TestInputRange:
    """Literals and variables outside the kernel's int32 range never reach C."""

    OUT_OF_RANGE = [MAX_VAR + 1, -(MAX_VAR + 1), 2**40, -(2**40)]

    @pytest.mark.parametrize("lit", OUT_OF_RANGE)
    def test_add_clause(self, lit):
        solver = ArenaSolver()
        with pytest.raises(SolverError, match="out of the kernel's range"):
            solver.add_clause([1, lit])
        assert solver.num_vars == 0

    @pytest.mark.parametrize("lit", OUT_OF_RANGE)
    def test_add_guarded(self, lit):
        solver = ArenaSolver()
        act = solver.new_activation()
        with pytest.raises(SolverError, match="out of the kernel's range"):
            solver.add_guarded(act, [lit])
        assert solver.num_vars == act
        assert solver.stats.guarded_clauses_added == 0

    @pytest.mark.parametrize("lit", OUT_OF_RANGE)
    def test_solve_assumptions(self, lit):
        solver = ArenaSolver()
        with pytest.raises(SolverError, match="out of the kernel's range"):
            solver.solve([1, lit])
        assert solver.num_vars == 0
        assert solver.stats.solve_calls == 0

    @pytest.mark.parametrize("var", [MAX_VAR + 1, 2**40])
    def test_ensure_var(self, var):
        solver = ArenaSolver()
        with pytest.raises(SolverError, match="out of the kernel's range"):
            solver.ensure_var(var)
        assert solver.num_vars == 0

    def test_zero_assumption_rejected(self):
        with pytest.raises(SolverError, match="0 is not a valid assumption literal"):
            ArenaSolver().solve([1, 0])



def _rejected_literals(what):
    """Inputs with a bad literal, each with the exact SolverError text."""
    cases = [([2, 0], f"0 is not a valid {what}"), ([0.5], f"0 is not a valid {what}")]
    for lit in [MAX_VAR + 1, -(MAX_VAR + 1), 2**40, -(2**40)]:
        text = f"{what} {lit} is out of the kernel's range (|l| <= {MAX_VAR})"
        cases += [([2, lit], text), ((lit, 2), text), ((x for x in [2, lit]), text)]
    return cases


_REJECTED = range(len(_rejected_literals("literal")))

# Each input reads as the clause, or the assumptions, [2, -3].
_ACCEPTED = {
    "list": lambda: [2, -3],
    "floats": lambda: [2.0, -3.9],
    "tuple": lambda: (2, -3),
    "generator": lambda: (x for x in [2, -3]),
    "bool": lambda: [True + 1, -3],
}


class TestLiteralChecks:
    """The kernel checks a list of ints itself; every other input is
    converted and checked in Python.  Both give the same errors, with
    nothing changed, and accept the same clauses."""

    @staticmethod
    def _answers(solver, guard=()):
        """Verdicts under the four assignments of variables 2 and 3."""
        return [
            solver.solve([*guard, 2 if a else -2, 3 if b else -3])
            for a, b in itertools.product((False, True), repeat=2)
        ]

    @pytest.mark.parametrize("index", _REJECTED)
    def test_add_clause_rejects(self, index):
        given, text = _rejected_literals("literal")[index]
        solver = ArenaSolver()
        with pytest.raises(SolverError) as error:
            solver.add_clause(given)
        assert str(error.value) == text
        assert (solver.num_vars, solver.num_clauses) == (0, 0)

    @pytest.mark.parametrize("index", _REJECTED)
    def test_add_guarded_rejects(self, index):
        given, text = _rejected_literals("literal")[index]
        solver = ArenaSolver()
        act = solver.new_activation()
        with pytest.raises(SolverError) as error:
            solver.add_guarded(act, given)
        assert str(error.value) == text
        assert solver.num_vars == act
        assert solver.stats.guarded_clauses_added == 0

    @pytest.mark.parametrize("index", _REJECTED)
    def test_solve_rejects(self, index):
        given, text = _rejected_literals("assumption literal")[index]
        solver = ArenaSolver()
        with pytest.raises(SolverError) as error:
            solver.solve(given)
        assert str(error.value) == text
        assert solver.num_vars == 0
        assert solver.stats.solve_calls == 0

    @pytest.mark.parametrize("make", _ACCEPTED.values(), ids=list(_ACCEPTED))
    def test_add_clause_accepts(self, make):
        solver = ArenaSolver()
        assert solver.add_clause(make()) is True
        assert (solver.num_vars, solver.num_clauses) == (3, 1)
        assert self._answers(solver) == [True, False, True, True]

    @pytest.mark.parametrize("make", _ACCEPTED.values(), ids=list(_ACCEPTED))
    def test_add_guarded_accepts(self, make):
        solver = ArenaSolver()
        act = solver.new_activation()
        ok, handle = solver.add_guarded(act, make())
        assert ok and handle is not None
        assert self._answers(solver, [act]) == [True, False, True, True]
        assert self._answers(solver) == [True] * 4

    @pytest.mark.parametrize("make", _ACCEPTED.values(), ids=list(_ACCEPTED))
    def test_solve_accepts(self, make):
        solver = ArenaSolver()
        solver.add_clause([-2, 3])
        assert solver.solve(make()) is False
        assert sorted(solver.unsat_core()) == [-3, 2]
        fresh = ArenaSolver()
        assert fresh.solve(make()) is True
        assert fresh.model_literals([2, 3]) == (2, -3)


class TestTracedSolve:
    """A tracer only observes: every input solves as it does untraced,
    and the ``sat.solve`` span counts the converted assumptions."""

    @staticmethod
    def _solve(given, traced):
        solver = ArenaSolver()
        solver.add_clause([-2, 3])
        tracer = install(Tracer()) if traced else None
        try:
            answer = solver.solve(given)
        finally:
            if traced:
                uninstall()
        core = sorted(solver.unsat_core()) if answer is False else None
        return (answer, core), tracer

    @pytest.mark.parametrize("make", _ACCEPTED.values(), ids=list(_ACCEPTED))
    def test_same_answer_with_and_without_a_tracer(self, make):
        untraced, _ = self._solve(make(), traced=False)
        traced, tracer = self._solve(make(), traced=True)
        assert traced == untraced == (False, [-3, 2])
        (span,) = [event for event in tracer.events() if event["name"] == "sat.solve"]
        assert span["args"]["assumptions"] == 2

    @pytest.mark.parametrize("index", _REJECTED)
    def test_same_error_with_a_tracer(self, index):
        given, text = _rejected_literals("assumption literal")[index]
        install(Tracer())
        try:
            with pytest.raises(SolverError) as error:
                ArenaSolver().solve(given)
        finally:
            uninstall()
        assert str(error.value) == text
