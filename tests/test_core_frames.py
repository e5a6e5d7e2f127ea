"""Tests for frame management and the IC3 SAT queries.

Every test in this module runs against both frame-management substrates
(the monolithic single-solver manager and the per-frame baseline) via the
``backend`` fixture; backend-specific behaviour has its own classes at
the bottom.  Both substrates run on the production arena kernel.
"""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.benchgen import token_ring, modular_counter
from repro.core.frames import (
    MonolithicFrameManager,
    PerFrameFrameManager,
    available_frame_backends,
    make_frame_manager,
)
from repro.core.options import IC3Options
from repro.core.stats import IC3Stats
from repro.logic import Cube
from repro.sat.arena import ArenaSolver
from repro.ts import TransitionSystem
from tests.test_flat_evaluators import random_aigs


@pytest.fixture(params=["monolithic", "per-frame"])
def backend(request):
    return request.param


def _manager(case=None, backend="monolithic", **option_kwargs):
    case = case if case is not None else token_ring(3)
    ts = TransitionSystem(case.aig)
    options = IC3Options(frame_backend=backend, **option_kwargs)
    stats = IC3Stats()
    manager = make_frame_manager(ts, options, stats)
    return manager, ts, stats


class TestFrameBookkeeping:
    def test_every_solver_is_an_arena_kernel(self, backend):
        manager, _, _ = _manager(backend=backend)
        manager.add_frame()
        solvers = manager.solvers()
        # Monolithic: main, lift and init; per-frame: frames 0-1 and lift.
        assert len(solvers) == 3
        assert all(type(solver) is ArenaSolver for solver in solvers)

    def test_initial_state(self, backend):
        manager, _, _ = _manager(backend=backend)
        assert manager.top_level == 0
        assert manager.lemma_counts() == [0]

    def test_add_frame(self, backend):
        manager, _, stats = _manager(backend=backend)
        assert manager.add_frame() == 1
        assert manager.add_frame() == 2
        assert manager.top_level == 2
        assert stats.frames_opened == 2

    def test_add_blocked_cube_levels(self, backend):
        manager, ts, stats = _manager(backend=backend)
        manager.add_frame()
        manager.add_frame()
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 2)
        assert manager.lemmas_exactly_at(2) == [cube]
        assert manager.lemmas_exactly_at(1) == []
        assert manager.lemmas_at_or_above(1) == [cube]
        assert stats.lemmas_added == 1

    def test_add_blocked_cube_invalid_level(self, backend):
        manager, ts, _ = _manager(backend=backend)
        with pytest.raises(ValueError):
            manager.add_blocked_cube(Cube([ts.latch_vars[0]]), 1)

    def test_subsumption_removes_weaker_lemmas(self, backend):
        manager, ts, stats = _manager(backend=backend)
        manager.add_frame()
        weak = Cube([ts.latch_vars[0], ts.latch_vars[1], ts.latch_vars[2]])
        strong = Cube([ts.latch_vars[0]])
        manager.add_blocked_cube(weak, 1)
        manager.add_blocked_cube(strong, 1)
        assert manager.lemmas_exactly_at(1) == [strong]
        assert stats.subsumed_lemmas == 1

    def test_subsumption_only_below_new_level(self, backend):
        manager, ts, _ = _manager(backend=backend)
        manager.add_frame()
        manager.add_frame()
        weak = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        strong = Cube([ts.latch_vars[0]])
        manager.add_blocked_cube(weak, 2)
        manager.add_blocked_cube(strong, 1)
        # The weak lemma lives at level 2 > 1, so it must survive.
        assert weak in manager.lemmas_exactly_at(2)

    def test_promote_cube(self, backend):
        manager, ts, stats = _manager(backend=backend)
        manager.add_frame()
        manager.add_frame()
        cube = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 1)
        manager.promote_cube(cube, 1, 2)
        assert manager.lemmas_exactly_at(1) == []
        assert manager.lemmas_exactly_at(2) == [cube]
        assert stats.lemmas_pushed == 1

    def test_is_blocked_syntactically(self, backend):
        manager, ts, _ = _manager(backend=backend)
        manager.add_frame()
        manager.add_frame()
        lemma = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(lemma, 2)
        bigger = Cube([ts.latch_vars[1], ts.latch_vars[2]])
        assert manager.is_blocked_syntactically(bigger, 1)
        assert manager.is_blocked_syntactically(bigger, 2)
        assert not manager.is_blocked_syntactically(Cube([ts.latch_vars[2]]), 1)

    def test_frames_equal_detection(self, backend):
        manager, ts, _ = _manager(backend=backend)
        manager.add_frame()
        assert manager.frames_equal(1)  # nothing stored at level 1 yet
        manager.add_blocked_cube(Cube([ts.latch_vars[1]]), 1)
        assert not manager.frames_equal(1)

    def test_frame_clauses_are_negations(self, backend):
        manager, ts, _ = _manager(backend=backend)
        manager.add_frame()
        cube = Cube([ts.latch_vars[1], -ts.latch_vars[2]])
        manager.add_blocked_cube(cube, 1)
        clauses = manager.frame_clauses(1)
        assert clauses == [cube.negate()]


class TestQueries:
    def test_get_bad_state_level0_for_safe_design(self, backend):
        manager, _, _ = _manager(token_ring(3), backend=backend)
        assert manager.get_bad_state(0) is None

    def test_get_bad_state_finds_violation(self, backend):
        # bad value 0 is the initial state itself.
        case = modular_counter(3, modulus=8, bad_value=0)
        manager, ts, _ = _manager(case, backend=backend)
        bad = manager.get_bad_state(0)
        assert bad is not None
        assert ts.cube_intersects_init(bad.state)

    def test_consecution_holds_for_unreachable_cube(self, backend):
        # In the token ring, "two tokens at once" is unreachable and its
        # negation is inductive relative to the one-token initial frame.
        case = token_ring(3)
        manager, ts, _ = _manager(case, backend=backend)
        manager.add_frame()
        two_tokens = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        result = manager.consecution(0, two_tokens)
        assert result.holds
        assert result.core_cube is not None
        assert result.core_cube.literal_set <= two_tokens.literal_set

    def test_consecution_fails_with_counterexample(self, backend):
        # "token in stage 1" is reachable from the initial state in one step.
        case = token_ring(3)
        manager, ts, _ = _manager(case, backend=backend)
        manager.add_frame()
        reachable = Cube([ts.latch_vars[1]])
        result = manager.consecution(0, reachable)
        assert not result.holds
        assert result.predecessor is not None
        assert result.successor is not None
        # The CTP successor satisfies the queried cube.
        assert reachable.literal_set <= result.successor.literal_set
        # The predecessor is an initial state (frame 0 = I).
        assert ts.cube_intersects_init(result.predecessor)

    def test_consecution_uses_frame_lemmas(self, backend):
        case = token_ring(3)
        manager, ts, _ = _manager(case, backend=backend)
        manager.add_frame()
        target = Cube([ts.latch_vars[1], -ts.latch_vars[0], -ts.latch_vars[2]])
        # Without extra lemmas the cube is reachable from F_1 = ⊤ ...
        assert not manager.consecution(1, target).holds
        # ... but once the frame says "token never in stage 0", it is not.
        manager.add_blocked_cube(Cube([ts.latch_vars[0]]), 1)
        assert manager.consecution(1, target).holds

    def test_counters_track_sat_calls(self, backend):
        manager, ts, stats = _manager(token_ring(3), backend=backend)
        manager.add_frame()
        manager.consecution(0, Cube([ts.latch_vars[1]]))
        manager.get_bad_state(0)
        assert stats.sat_calls == 2
        assert stats.consecution_calls == 1

    def test_lift_predecessor_returns_subcube(self, backend):
        case = token_ring(4)
        manager, ts, _ = _manager(case, backend=backend)
        manager.add_frame()
        result = manager.consecution(0, Cube([ts.latch_vars[1]]))
        assert not result.holds
        lifted = manager.lift_predecessor(
            result.predecessor, result.inputs, Cube([ts.latch_vars[1]])
        )
        assert lifted.literal_set <= result.predecessor.literal_set
        assert len(lifted) >= 1

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(random_aigs(max_vars=12), st.sampled_from(["monolithic", "per-frame"]))
    def test_lifted_bad_state_asserts_bad_everywhere(self, aig, backend):
        # Lifting against the property keeps a sub-cube of the bad state
        # in which every state, under the model's inputs, asserts Bad.
        assume(len(aig.latches) <= 5 and len(aig.inputs) <= 3 and not aig.constraints)
        assume(aig.bads or aig.outputs)
        ts = TransitionSystem(aig, warn_on_ambiguity=False)
        manager = make_frame_manager(ts, IC3Options(frame_backend=backend), IC3Stats())
        manager.add_frame()
        bad = manager.get_bad_state(1)
        assume(bad is not None)
        lifted = manager.lift_predecessor(bad.state, bad.inputs)
        assert lifted.literal_set <= bad.state.literal_set
        fixed = {abs(lit): lit > 0 for lit in lifted}
        free = [var for var in ts.latch_vars if var not in fixed]
        for values in itertools.product((False, True), repeat=len(free)):
            state = {**fixed, **dict(zip(free, values))}
            latches = {
                latch.lit: state[var] for var, latch in zip(ts.latch_vars, aig.latches)
            }
            (record,) = aig.simulate([bad.input_values], initial_latches=latches)
            assert (record["bads"] or record["outputs"])[0]

    def test_solver_rebuild_preserves_answers(self, backend, monkeypatch):
        monkeypatch.setattr(PerFrameFrameManager, "REBUILD_INTERVAL", 2)
        case = token_ring(3)
        manager, ts, _ = _manager(case, backend=backend)
        manager.add_frame()
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        results = [manager.consecution(0, cube).holds for _ in range(8)]
        assert all(results)

    def test_total_lemmas(self, backend):
        manager, ts, _ = _manager(backend=backend)
        manager.add_frame()
        manager.add_blocked_cube(Cube([ts.latch_vars[1]]), 1)
        manager.add_blocked_cube(Cube([ts.latch_vars[2]]), 1)
        assert sum(manager.lemma_counts()) == 2


def _witness_manager(backend, levels):
    """A token ring manager with ``levels`` frames and one stored witness
    ``(s, t)`` recorded at ``levels``: token in stage 0, then stage 1."""
    manager, ts, stats = _manager(token_ring(3), backend=backend)
    for _ in range(levels):
        manager.add_frame()
    a, b, c = ts.latch_vars
    result = manager.consecution(levels, Cube([-a, b, -c]))
    assert not result.holds
    return manager, ts, stats, result


class TestWitnessStore:
    def test_failed_query_is_answered_from_its_witness(self, backend):
        manager, ts, stats, witness = _witness_manager(backend, 1)
        manager.add_frame()
        calls = (stats.sat_calls, stats.consecution_calls)
        for level in (1, 2):
            reused = manager.consecution(level, Cube([ts.latch_vars[1]]))
            assert not reused.holds
            assert reused.predecessor == witness.predecessor
            assert reused.successor == witness.successor
            assert reused.inputs == witness.inputs
        assert (stats.sat_calls, stats.consecution_calls) == calls
        assert stats.consecution_reuses == 2

    def test_reuse_false_runs_the_solver_and_records(self, backend):
        manager, ts, stats, _ = _witness_manager(backend, 1)
        query = Cube([ts.latch_vars[1]])
        calls = stats.consecution_calls
        assert not manager.consecution(1, query, reuse=False).holds
        assert stats.consecution_calls == calls + 1
        assert stats.consecution_reuses == 0
        assert manager._reuse_witness(1, query) is not None

    def test_lemma_at_or_above_the_level_blocking_s_disables_it(self, backend):
        manager, ts, _, witness = _witness_manager(backend, 1)
        manager.add_frame()
        query = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(witness.predecessor, 1)
        assert manager._reuse_witness(1, query) is None
        # F_2 does not contain the lemma: s is still in it.
        assert manager._reuse_witness(2, query) is not None

    def test_lemma_below_the_level_keeps_it(self, backend):
        manager, ts, _, witness = _witness_manager(backend, 2)
        query = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(witness.predecessor, 1)
        assert manager._reuse_witness(1, query) is None
        assert manager._reuse_witness(2, query) is not None

    def test_promotion_counts_as_insertion_at_its_target(self, backend):
        manager, ts, _, witness = _witness_manager(backend, 2)
        manager.add_frame()
        query = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(witness.predecessor, 1)
        manager.promote_cube(witness.predecessor, 1, 2)
        assert manager._reuse_witness(2, query) is None
        assert manager._reuse_witness(3, query) is not None

    def test_query_inside_the_pre_state_is_not_answered(self, backend):
        manager, _, _, witness = _witness_manager(backend, 1)
        common = witness.predecessor.literal_set & witness.successor.literal_set
        assert common
        assert manager._reuse_witness(1, Cube(sorted(common))) is None

    def test_frame_zero_is_never_recorded_or_answered(self, backend):
        manager, ts, stats = _manager(token_ring(3), backend=backend)
        manager.add_frame()
        query = Cube([ts.latch_vars[1]])
        assert not manager.consecution(0, query).holds
        assert manager._reuse_witness(0, query) is None
        assert manager._reuse_witness(1, query) is None
        # A level-1 answer is recorded but never answers frame 0.
        assert not manager.consecution(1, query).holds
        assert stats.consecution_reuses == 0
        assert manager._reuse_witness(1, query) is not None
        assert manager._reuse_witness(0, query) is None


class TestRefutedPush:
    """``refuted_push`` answers from the witness of a cube's last failed
    consecution, SAT or store answer, while it is usable at the level."""

    def test_skips_while_the_witness_is_usable(self, backend):
        manager, ts, stats, witness = _witness_manager(backend, 1)
        manager.add_frame()
        query = Cube([-ts.latch_vars[0], ts.latch_vars[1], -ts.latch_vars[2]])
        assert manager.refuted_push(1, query) == manager._usable[1] != 0
        assert manager.refuted_push(2, query) == manager._usable[2]
        assert stats.consecution_reuses == 2
        manager.add_blocked_cube(witness.predecessor, 1)
        assert manager.refuted_push(1, query) == 0
        assert manager.refuted_push(2, query)
        assert stats.consecution_reuses == 3

    def test_store_answers_are_remembered_too(self, backend):
        manager, ts, stats, _ = _witness_manager(backend, 1)
        query = Cube([ts.latch_vars[1]])
        assert manager.refuted_push(1, query) == 0
        assert not manager.consecution(1, query).holds
        assert stats.consecution_reuses == 1
        assert manager.refuted_push(1, query)
        assert stats.consecution_reuses == 2

    def test_drop_attempts_are_not_remembered(self, backend):
        manager, ts, stats = _manager(token_ring(3), backend=backend)
        manager.add_frame()
        query = Cube([ts.latch_vars[1]])
        assert not manager.consecution(1, query, reuse=False).holds
        assert manager.refuted_push(1, query) == 0
        assert not manager.consecution(1, query).holds
        assert manager.refuted_push(1, query)

    def test_no_skip_at_frame_zero_or_for_held_queries(self, backend):
        manager, ts, stats = _manager(token_ring(3), backend=backend)
        manager.add_frame()
        query = Cube([ts.latch_vars[1]])
        assert not manager.consecution(0, query).holds
        assert manager.refuted_push(0, query) == 0
        assert manager.refuted_push(1, query) == 0
        assert manager.consecution(1, Cube(ts.latch_vars)).holds
        assert manager.refuted_push(1, Cube(ts.latch_vars)) == 0
        assert stats.consecution_reuses == 0


class TestBackendSelection:
    def test_available_backends(self):
        assert available_frame_backends() == ["monolithic", "per-frame"]

    def test_factory_dispatches_on_options(self):
        ts = TransitionSystem(token_ring(3).aig)
        mono = make_frame_manager(ts, IC3Options(), IC3Stats())
        assert isinstance(mono, MonolithicFrameManager)
        per_frame = make_frame_manager(
            ts, IC3Options(frame_backend="per-frame"), IC3Stats()
        )
        assert isinstance(per_frame, PerFrameFrameManager)

    def test_unknown_backend_rejected_by_options(self):
        with pytest.raises(ValueError, match="frame_backend"):
            IC3Options(frame_backend="nonsense").validate()


class TestMonolithicSubstrate:
    def test_lemma_added_once_and_shared(self):
        manager, ts, stats = _manager(backend="monolithic")
        for _ in range(3):
            manager.add_frame()
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 3)
        # One physical clause serves logical frames 1..3.
        assert stats.lemma_clauses_added == 1
        assert stats.solver_clauses_shared == 2
        assert stats.solver_clauses_duplicated == 0

    def test_promotion_moves_single_clause(self):
        manager, ts, stats = _manager(backend="monolithic")
        manager.add_frame()
        manager.add_frame()
        cube = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 1)
        manager.promote_cube(cube, 1, 2)
        # The move is deferred until a query needs it, then the old copy
        # is deleted: net one live clause.
        manager.consecution(2, Cube([ts.latch_vars[0]]))
        assert stats.lemma_clauses_added == 2
        assert stats.lemma_clauses_removed == 1

    def test_pending_cover_counts_the_moves_each_level_needs(self):
        manager, ts, stats = _manager(backend="monolithic")
        for _ in range(3):
            manager.add_frame()
        a, b, c = ts.latch_vars

        def scanned():
            return [
                sum(f < level <= t for f, t, _ in manager._pending_moves)
                for level in range(len(manager.frames))
            ]

        manager.add_blocked_cube(Cube([a, b]), 1)
        manager.add_blocked_cube(Cube([a, c]), 1)
        manager.promote_cube(Cube([a, b]), 1, 2)
        manager.promote_cube(Cube([a, c]), 1, 3)
        assert manager._pending_cover == scanned() == [0, 0, 2, 1]
        # Subsumed before its move was applied: the move is dropped.
        manager.add_blocked_cube(Cube([b]), 2)
        assert manager._pending_cover == scanned() == [0, 0, 1, 1]
        added = stats.lemma_clauses_added
        manager.get_bad_state(1)
        assert stats.lemma_clauses_added == added
        manager.get_bad_state(3)
        assert stats.lemma_clauses_added == added + 1
        assert manager._pending_cover == scanned() == [0, 0, 0, 0]

    def test_subsumed_lemma_clause_physically_removed(self):
        manager, ts, stats = _manager(backend="monolithic")
        manager.add_frame()
        weak = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        strong = Cube([ts.latch_vars[0]])
        manager.add_blocked_cube(weak, 1)
        manager.add_blocked_cube(strong, 1)
        assert stats.subsumed_lemmas == 1
        assert stats.lemma_clauses_removed == 1

    def test_duplicate_cube_below_higher_copy_shares_one_clause(self):
        # CTG blocking can re-add a cube at a level below an existing
        # higher-level copy; the higher clause already covers the lower
        # placement through the assumption suffix, so no copy is added
        # and subsuming one list entry must not delete the shared clause.
        manager, ts, stats = _manager(token_ring(4), backend="monolithic")
        for _ in range(5):
            manager.add_frame()
        x = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        manager.add_blocked_cube(x, 5)
        manager.add_blocked_cube(x, 2)
        assert stats.lemma_clauses_added == 1
        manager.add_blocked_cube(Cube([ts.latch_vars[0]]), 2)  # subsumes @2 only
        assert stats.lemma_clauses_removed == 0
        # The level-5 placement still blocks the cube for level-4 queries.
        assert manager.consecution(4, x) is not None

    def test_query_assumptions_switch_off_the_frame_below(self, monkeypatch):
        manager, ts, _ = _manager(token_ring(4), backend="monolithic")
        for _ in range(4):
            manager.add_frame()
        queries = []
        solve = ArenaSolver.solve

        def recording(solver, assumptions=(), *args, **kwargs):
            if solver is manager._solver:
                queries.append(list(assumptions))
            return solve(solver, assumptions, *args, **kwargs)

        monkeypatch.setattr(ArenaSolver, "solve", recording)
        acts = manager._acts
        for level in (1, 2, 4):
            queries.clear()
            manager.get_bad_state(level)
            manager.consecution(level, Cube([ts.latch_vars[0]]), reuse=False)
            expected = acts[:level - 1:-1] + ([-acts[level - 1]] if level >= 2 else [])
            assert queries[0] == expected + [ts.bad_lit]
            assert queries[1][:len(expected)] == expected

    def test_lemma_below_the_query_level_leaves_the_answer_unconstrained(self):
        # The only bad state (counter = 2) is blocked at level 1 only, so
        # F_2 still contains it and a level-2 query returns it, with the
        # level-1 frame switched off.
        case = modular_counter(3, modulus=8, bad_value=2)
        manager, ts, _ = _manager(case, backend="monolithic")
        for _ in range(3):
            manager.add_frame()
        bad = manager.get_bad_state(1)
        manager.add_blocked_cube(bad.state, 1)
        assert manager.get_bad_state(1) is None
        again = manager.get_bad_state(2)
        assert again is not None and again.state == bad.state
        assert manager._solver.model_literals([manager._acts[1]]) == (-manager._acts[1],)

    def test_finalize_stats_reports_activation_accounting(self):
        manager, ts, stats = _manager(token_ring(4), backend="monolithic")
        manager.add_frame()
        result = manager.consecution(0, Cube([ts.latch_vars[1]]))
        assert not result.holds
        manager.lift_predecessor(
            result.predecessor, result.inputs, Cube([ts.latch_vars[1]])
        )
        manager.finalize_stats()
        assert stats.activation_vars_allocated >= 1


class TestPerFrameSubstrate:
    def test_subsumed_lemmas_count_toward_garbage(self):
        # Satellite of ISSUE 4: dropped-but-live clauses feed the
        # rebuild heuristic instead of leaking silently.
        manager, ts, stats = _manager(backend="per-frame")
        manager.add_frame()
        manager.add_frame()
        weak = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        strong = Cube([ts.latch_vars[0]])
        manager.add_blocked_cube(weak, 2)  # copies in solvers 1 and 2
        manager.add_blocked_cube(strong, 2)
        assert stats.subsumed_lemmas == 1
        assert stats.solver_garbage_lemmas == 2
        assert manager._garbage[1] == 1 and manager._garbage[2] == 1

    def test_subsumption_garbage_triggers_rebuild(self, monkeypatch):
        monkeypatch.setattr(PerFrameFrameManager, "REBUILD_INTERVAL", 2)
        manager, ts, stats = _manager(backend="per-frame")
        manager.add_frame()
        weak_a = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        weak_b = Cube([ts.latch_vars[0], ts.latch_vars[2]])
        strong = Cube([ts.latch_vars[0]])
        manager.add_blocked_cube(weak_a, 1)
        manager.add_blocked_cube(weak_b, 1)
        manager.add_blocked_cube(strong, 1)
        assert stats.solver_garbage_lemmas == 2
        # The garbage counter is at the threshold; the next consecution
        # note pushes it over and rebuilds.
        manager.consecution(1, Cube([ts.latch_vars[1], ts.latch_vars[2]]))
        assert stats.solver_rebuilds >= 1

    def test_lemma_clause_duplication_counted(self):
        manager, ts, stats = _manager(backend="per-frame")
        for _ in range(3):
            manager.add_frame()
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 3)
        assert stats.lemma_clauses_added == 3  # one copy per covered frame
        assert stats.solver_clauses_duplicated == 2


class TestBackendEquivalence:
    def test_same_query_answers_on_lemma_workload(self):
        results = {}
        for name in ("monolithic", "per-frame"):
            manager, ts, _ = _manager(token_ring(4), backend=name)
            manager.add_frame()
            manager.add_frame()
            latches = ts.latch_vars
            answers = []
            manager.add_blocked_cube(Cube([latches[0], latches[1]]), 1)
            manager.add_blocked_cube(Cube([latches[1], latches[2]]), 2)
            for level in (0, 1, 2):
                for i in range(len(latches)):
                    cube = Cube([latches[i], latches[(i + 1) % len(latches)]])
                    answers.append(manager.consecution(level, cube).holds)
                answers.append(manager.get_bad_state(level) is None)
            results[name] = answers
        assert results["monolithic"] == results["per-frame"]
