"""Tests for the inductive-generalization (MIC) strategies."""


from repro.benchgen import token_ring, modular_counter, round_robin_arbiter
from repro.core.frames import ConsecutionResult, MonolithicFrameManager
from repro.core.generalize import (
    MAX_CTGS,
    BasicGeneralizer,
    CtgGeneralizer,
    ParentOrderedGeneralizer,
    make_generalizer,
)
from repro.core.options import GeneralizationStrategy, IC3Options, LiteralOrdering
from repro.core.stats import IC3Stats
from repro.logic import Cube
from repro.ts import TransitionSystem


def _setup(case=None, **option_kwargs):
    case = case if case is not None else token_ring(4)
    ts = TransitionSystem(case.aig)
    options = IC3Options(**option_kwargs)
    stats = IC3Stats()
    frames = MonolithicFrameManager(ts, options, stats)
    frames.add_frame()
    generalizer = make_generalizer(frames, ts, options, stats, {})
    return generalizer, frames, ts, stats


class TestFactory:
    def test_basic(self):
        generalizer, _, _, _ = _setup(generalization=GeneralizationStrategy.BASIC)
        assert isinstance(generalizer, BasicGeneralizer)

    def test_ctg(self):
        generalizer, _, _, _ = _setup(generalization=GeneralizationStrategy.CTG)
        assert isinstance(generalizer, CtgGeneralizer)

    def test_parent_ordered(self):
        generalizer, _, _, _ = _setup(
            generalization=GeneralizationStrategy.PARENT_ORDERED
        )
        assert isinstance(generalizer, ParentOrderedGeneralizer)


class TestLiteralOrdering:
    def test_index_order(self):
        generalizer, _, ts, _ = _setup(literal_ordering=LiteralOrdering.INDEX)
        cube = Cube([ts.latch_vars[2], ts.latch_vars[0]])
        assert generalizer.order_literals(cube, 1) == sorted(cube, key=abs)

    def test_activity_order_drops_least_active_first(self):
        generalizer, frames, ts, stats = _setup(
            literal_ordering=LiteralOrdering.ACTIVITY
        )
        activity = generalizer.literal_activity
        activity[abs(ts.latch_vars[0])] = 10.0
        activity[abs(ts.latch_vars[1])] = 1.0
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        ordered = generalizer.order_literals(cube, 1)
        assert abs(ordered[0]) == abs(ts.latch_vars[1])

    def test_parent_ordered_keeps_parent_literals_last(self):
        generalizer, frames, ts, _ = _setup(
            generalization=GeneralizationStrategy.PARENT_ORDERED
        )
        frames.add_frame()
        parent = Cube([ts.latch_vars[1]])
        frames.add_blocked_cube(parent, 1)
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1], ts.latch_vars[2]])
        ordered = generalizer.order_literals(cube, 2)
        assert ordered[-1] == ts.latch_vars[1]


class TestGeneralizationCorrectness:
    def _assert_valid_generalization(self, frames, ts, original, generalized, level):
        # The generalized cube is a sub-cube ...
        assert generalized.literal_set <= original.literal_set
        assert len(generalized) >= 1
        # ... that still excludes the initial states ...
        assert not ts.cube_intersects_init(generalized)
        # ... and is still relatively inductive at the same level.
        assert frames.consecution(level - 1, generalized).holds

    def test_two_token_cube_shrinks(self):
        generalizer, frames, ts, stats = _setup(token_ring(5))
        # Full state with two tokens: unreachable, blockable at level 1.
        original = Cube(
            [ts.latch_vars[0], ts.latch_vars[1]]
            + [-v for v in ts.latch_vars[2:]]
        )
        assert frames.consecution(0, original).holds
        generalized = generalizer.generalize(original, 1)
        self._assert_valid_generalization(frames, ts, original, generalized, 1)
        assert len(generalized) < len(original)
        assert stats.mic_drop_attempts > 0

    def test_counter_range_cube_shrinks(self):
        case = modular_counter(4, modulus=14, bad_value=15)
        generalizer, frames, ts, stats = _setup(case)
        # State 15 (all ones) is unreachable; its cube should generalize.
        original = Cube(list(ts.latch_vars))
        assert frames.consecution(0, original).holds
        generalized = generalizer.generalize(original, 1)
        self._assert_valid_generalization(frames, ts, original, generalized, 1)

    def test_generalization_never_intersects_init(self):
        for strategy in GeneralizationStrategy:
            generalizer, frames, ts, _ = _setup(
                token_ring(4), generalization=strategy
            )
            original = Cube(
                [ts.latch_vars[1], ts.latch_vars[2]]
                + [-ts.latch_vars[0], -ts.latch_vars[3]]
            )
            assert frames.consecution(0, original).holds
            generalized = generalizer.generalize(original, 1)
            self._assert_valid_generalization(frames, ts, original, generalized, 1)

    def test_single_literal_cube_kept(self):
        case = modular_counter(3, modulus=4, bad_value=7)
        generalizer, frames, ts, _ = _setup(case)
        # Counter bit 2 can never be 1 (modulus 4).
        original = Cube([ts.latch_vars[2]])
        assert frames.consecution(0, original).holds
        generalized = generalizer.generalize(original, 1)
        assert generalized == original

    def test_ctg_generalizer_blocks_ctgs(self):
        case = round_robin_arbiter(3, safe=True)
        generalizer, frames, ts, stats = _setup(case, generalization=GeneralizationStrategy.CTG)
        # Two grants at once is unreachable but needs the token invariant;
        # generalizing it gives the CTG machinery something to do.
        grant_vars = ts.latch_vars[3:]
        original = Cube(
            [grant_vars[0], grant_vars[1]]
            + [-v for v in ts.latch_vars if v not in (grant_vars[0], grant_vars[1])]
        )
        if frames.consecution(0, original).holds:
            generalized = generalizer.generalize(original, 1)
            self._assert_valid_generalization(frames, ts, original, generalized, 1)

    def test_drop_statistics_consistent(self):
        generalizer, frames, ts, stats = _setup(token_ring(4))
        original = Cube(
            [ts.latch_vars[0], ts.latch_vars[1]] + [-v for v in ts.latch_vars[2:]]
        )
        generalizer.generalize(original, 1)
        assert stats.mic_drop_successes <= stats.mic_drop_attempts


class TestCoreShrinking:
    """A successful drop shrinks to its consecution core whenever the core
    is usable: non-empty and disjoint from the initial states."""

    def test_usable_core_replaces_candidate(self):
        generalizer, _, ts, _ = _setup(token_ring(4))
        candidate = Cube([ts.latch_vars[1], ts.latch_vars[2], -ts.latch_vars[3]])
        core = Cube([ts.latch_vars[1], ts.latch_vars[2]])
        assert generalizer.apply_core(candidate, core) == core

    def test_missing_core_keeps_candidate(self):
        generalizer, _, ts, _ = _setup(token_ring(4))
        candidate = Cube([ts.latch_vars[1], ts.latch_vars[2]])
        assert generalizer.apply_core(candidate, None) == candidate

    def test_empty_core_keeps_candidate(self):
        generalizer, _, ts, _ = _setup(token_ring(4))
        candidate = Cube([ts.latch_vars[1], ts.latch_vars[2]])
        assert generalizer.apply_core(candidate, Cube([])) == candidate

    def test_core_meeting_init_keeps_candidate(self):
        generalizer, _, ts, _ = _setup(token_ring(4))
        # The initial state holds the token at latch 0 and nowhere else.
        candidate = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        core = Cube([ts.latch_vars[0]])
        assert ts.cube_intersects_init(core)
        assert generalizer.apply_core(candidate, core) == candidate


class TestFixedBounds:
    def test_mic_makes_one_pass(self):
        generalizer, _, ts, stats = _setup(token_ring(5))
        original = Cube(
            [ts.latch_vars[0], ts.latch_vars[1]] + [-v for v in ts.latch_vars[2:]]
        )
        generalizer.generalize(original, 1)
        # One pass tries each literal of the original cube at most once.
        assert 0 < stats.mic_drop_attempts <= len(original)

    def test_ctg_drop_blocks_at_most_max_ctgs(self):
        ts = TransitionSystem(token_ring(4).aig)
        ctg = Cube([ts.latch_vars[1], ts.latch_vars[2]])
        candidate = Cube([ts.latch_vars[1], ts.latch_vars[3]])

        class EndlessCtgs:
            """Every drop fails with the same blockable CTG."""

            top_level = 1

            def __init__(self):
                self.blocked = []

            def consecution(self, level, cube, reuse=True):
                if cube == ctg:
                    return ConsecutionResult(holds=True, core_cube=ctg)
                return ConsecutionResult(holds=False, predecessor=ctg)

            def add_blocked_cube(self, cube, level):
                self.blocked.append((cube, level))

        frames = EndlessCtgs()
        stats = IC3Stats()
        generalizer = CtgGeneralizer(frames, ts, IC3Options(), stats, {})
        assert generalizer._attempt_drop(candidate, 1) is None
        assert MAX_CTGS == 3
        assert stats.ctg_blocked == len(frames.blocked) == MAX_CTGS
        assert stats.mic_drop_attempts == MAX_CTGS + 1
