"""Tests for the CTP table and the lemma-prediction algorithm (Algorithm 2)."""

import pytest

from collections import Counter

from repro.benchgen import bench_suite, token_ring
from repro.core.frames import ConsecutionResult, make_frame_manager
from repro.core.options import IC3Options
from repro.core.predict import MAX_PREDICTION_QUERIES, CtpTable, LemmaPredictor
from repro.core.stats import IC3Stats
from repro.core.ic3 import IC3
from repro.harness.configs import paper_configurations
from repro.logic import Cube, diff
from repro.ts import TransitionSystem


class TestCtpTable:
    def test_record_and_lookup(self):
        table = CtpTable()
        lemma, successor = Cube([1, 2]), Cube([-1, 2])
        table.record(lemma, 3, successor)
        assert table.lookup(lemma, 3) == successor
        assert (lemma, 3) in table
        assert len(table) == 1

    def test_lookup_respects_level(self):
        table = CtpTable()
        table.record(Cube([1]), 2, Cube([-1]))
        assert table.lookup(Cube([1]), 3) is None

    def test_overwrite_updates_entry(self):
        table = CtpTable()
        table.record(Cube([1]), 1, Cube([2]))
        table.record(Cube([1]), 1, Cube([-2]))
        assert table.lookup(Cube([1]), 1) == Cube([-2])
        assert len(table) == 1

    def test_clear(self):
        table = CtpTable()
        table.record(Cube([1]), 1, Cube([2]))
        table.clear()
        assert len(table) == 0
        assert table.lookup(Cube([1]), 1) is None


class TestLazyCtpEntries:
    """A push the propagation sweep skipped records the witness mask
    ``refuted_push`` returned; the table resolves it to the successor the
    store would have answered with at that point."""

    @staticmethod
    def _store():
        ts = TransitionSystem(token_ring(3).aig)
        stats = IC3Stats()
        frames = make_frame_manager(ts, IC3Options(), stats)
        frames.add_frame()
        frames.add_frame()
        return frames, ts.latch_vars, stats

    @staticmethod
    def _witness(frames, level, cube, state, successor):
        """Store the failed consecution ``(state, successor)`` of ``cube``."""
        frames._record_witness(
            level,
            ConsecutionResult(
                holds=False,
                predecessor=Cube(state),
                inputs=Cube([]),
                successor=Cube(successor),
            ),
            cube,
        )

    def test_resolves_to_the_store_answer_at_record_time(self):
        frames, (a, b, c), stats = self._store()
        query = Cube([b])
        self._witness(frames, 1, query, [a, -b, -c], [-a, b, -c])
        self._witness(frames, 1, Cube([b, c]), [-a, -b, c], [-a, b, c])
        usable = frames.refuted_push(1, query)
        assert usable and stats.consecution_reuses == 1
        eager = frames._reuse_witness(1, query).successor
        assert eager == Cube([-a, b, c])  # the newest refuting witness
        table = CtpTable(frames)
        table.record_refuted(query, 1, usable)
        assert (query, 1) in table
        assert table.lookup(query, 1) == eager

    def test_resolved_after_newer_witnesses_were_recorded(self):
        frames, (a, b, c), _ = self._store()
        query = Cube([b])
        self._witness(frames, 1, query, [a, -b, -c], [-a, b, -c])
        table = CtpTable(frames)
        table.record_refuted(query, 1, frames.refuted_push(1, query))
        eager = frames._reuse_witness(1, query).successor
        # A newer witness refutes the same push, and a lemma then blocks
        # the recorded one's pre-state: the store would now answer with
        # the newer witness, the lazy entry still with the old one.
        self._witness(frames, 1, query, [-a, -b, c], [-a, b, c])
        frames.add_blocked_cube(Cube([a, -b]), 2)
        assert frames._reuse_witness(1, query).successor == Cube([-a, b, c])
        assert len(table) == 1
        assert table.lookup(query, 1) == eager == Cube([-a, b, -c])
        with pytest.raises(ValueError, match="no witness in the mask refutes"):
            frames.refuting_successor(Cube([a]), frames._usable[1])

    def test_entries_resolve_and_mix_with_eager_ones(self):
        frames, (a, b, c), _ = self._store()
        query = Cube([b])
        self._witness(frames, 1, query, [a, -b, -c], [-a, b, -c])
        table = CtpTable(frames)
        table.record_refuted(query, 1, frames.refuted_push(1, query))
        table.record(Cube([a]), 2, Cube([a, b, c]))
        assert table.lookup(query, 1) == Cube([-a, b, -c])
        assert table.lookup(Cube([a]), 2) == Cube([a, b, c])
        assert len(table) == 2

    def test_predictor_counts_lazy_records(self):
        predictor, frames, ts, stats = _predictor_setup()
        frames.add_frame()
        frames.add_frame()
        query = Cube([ts.latch_vars[1]])
        assert not frames.consecution(1, query).holds
        predictor.record_refuted_push(query, 1, frames.refuted_push(1, query))
        assert stats.ctp_recorded == 1
        assert predictor.table.lookup(query, 1) == frames._reuse_witness(1, query).successor


def _predictor_setup(case=None):
    case = case if case is not None else token_ring(4)
    ts = TransitionSystem(case.aig)
    stats = IC3Stats()
    frames = make_frame_manager(ts, IC3Options(enable_prediction=True), stats)
    predictor = LemmaPredictor(frames, stats)
    return predictor, frames, ts, stats


class TestParentLemmas:
    def test_no_parents_when_frame_empty(self):
        predictor, frames, ts, _ = _predictor_setup()
        frames.add_frame()
        assert predictor.parent_lemmas(Cube([ts.latch_vars[0]]), 1) == []

    def test_level_zero_has_no_parents(self):
        predictor, _, ts, _ = _predictor_setup()
        assert predictor.parent_lemmas(Cube([ts.latch_vars[0]]), 0) == []

    def test_parent_must_be_contained_in_cube(self):
        predictor, frames, ts, _ = _predictor_setup()
        frames.add_frame()
        frames.add_frame()
        parent = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        unrelated = Cube([ts.latch_vars[2], ts.latch_vars[3]])
        frames.add_blocked_cube(parent, 1)
        frames.add_blocked_cube(unrelated, 1)
        bad = Cube([ts.latch_vars[0], ts.latch_vars[1], ts.latch_vars[2]])
        assert predictor.parent_lemmas(bad, 1) == [parent]

    def test_parent_only_from_exact_level(self):
        predictor, frames, ts, _ = _predictor_setup()
        frames.add_frame()
        frames.add_frame()
        parent = Cube([ts.latch_vars[0]])
        frames.add_blocked_cube(parent, 2)  # lives at level 2, not level 1
        bad = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        assert predictor.parent_lemmas(bad, 1) == []
        assert predictor.parent_lemmas(bad, 2) == [parent]


class TestRecordingFailures:
    def test_record_and_stats(self):
        predictor, _, ts, stats = _predictor_setup()
        predictor.record_push_failure(Cube([ts.latch_vars[0]]), 1, Cube([-ts.latch_vars[0]]))
        assert stats.ctp_recorded == 1
        assert predictor.table.lookup(Cube([ts.latch_vars[0]]), 1) is not None

    def test_record_none_successor_ignored(self):
        predictor, _, ts, stats = _predictor_setup()
        predictor.record_push_failure(Cube([ts.latch_vars[0]]), 1, None)
        assert stats.ctp_recorded == 0
        assert len(predictor.table) == 0

    def test_clear_counts_only_nonempty(self):
        predictor, _, ts, stats = _predictor_setup()
        predictor.clear_table()
        assert stats.ctp_table_clears == 0
        predictor.record_push_failure(Cube([ts.latch_vars[0]]), 1, Cube([ts.latch_vars[1]]))
        predictor.clear_table()
        assert stats.ctp_table_clears == 1
        assert len(predictor.table) == 0


class TestPrediction:
    def test_no_prediction_without_parents(self):
        predictor, frames, ts, stats = _predictor_setup()
        frames.add_frame()
        frames.add_frame()
        assert predictor.predict(Cube([ts.latch_vars[0]]), 2) is None
        assert stats.prediction_queries == 0

    def test_no_prediction_without_recorded_failure(self):
        predictor, frames, ts, stats = _predictor_setup()
        frames.add_frame()
        frames.add_frame()
        parent = Cube([ts.latch_vars[1]])
        frames.add_blocked_cube(parent, 1)
        bad = Cube([ts.latch_vars[1], ts.latch_vars[2]])
        assert predictor.predict(bad, 2) is None
        assert stats.parent_lemmas_found == 1
        assert stats.parent_lemma_hits == 0

    def test_successful_extended_prediction_in_engine_scenario(self):
        """Drive the predictor through a real IC3-like situation.

        In the 4-stage token ring, the lemma ¬(stage1 ∧ stage2) fails to
        propagate (we record a synthetic CTP with the real successor), and
        blocking the two-token cube (stage1 ∧ stage2 ∧ stage3) at the next
        level should then be predicted from the parent without dropping
        variables.
        """
        predictor, frames, ts, stats = _predictor_setup(token_ring(4))
        frames.add_frame()
        frames.add_frame()
        l0, l1, l2, l3 = ts.latch_vars
        parent = Cube([l1, l2])
        frames.add_blocked_cube(parent, 1)

        bad = Cube([l1, l2, l3])
        # CTP state that satisfies the parent but disagrees with `bad` on l3.
        ctp_state = Cube([-l0, l1, l2, -l3])
        predictor.record_push_failure(parent, 1, ctp_state)

        prediction = predictor.predict(bad, 2)
        assert prediction is not None
        assert prediction.kind == "extended"
        # Equation 6: the predicted cube extends the parent by one diff literal.
        assert parent.literal_set < prediction.cube.literal_set
        assert prediction.cube.literal_set <= bad.literal_set
        assert diff(prediction.cube, ctp_state)
        assert stats.prediction_successes == 1
        assert stats.parent_lemma_hits == 1
        assert stats.predicted_extended == 1

    def test_push_parent_prediction_when_diff_empty(self):
        predictor, frames, ts, stats = _predictor_setup(token_ring(4))
        frames.add_frame()
        frames.add_frame()
        l0, l1, l2, l3 = ts.latch_vars
        parent = Cube([l1, l2])
        frames.add_blocked_cube(parent, 1)
        # A second lemma that makes the parent's push succeed (it excludes
        # the only predecessor of a two-token state at stages 1 and 2).
        frames.add_blocked_cube(Cube([l0, l1]), 1)
        bad = Cube([l1, l2, l3])
        # CTP state that *agrees* with bad on every literal -> empty diff set.
        ctp_state = Cube([l1, l2, l3, -l0])
        predictor.record_push_failure(parent, 1, ctp_state)

        prediction = predictor.predict(bad, 2)
        assert prediction is not None
        assert prediction.kind == "push-parent"
        assert prediction.cube == parent
        assert stats.predicted_push_parent == 1

    def test_predicted_lemma_is_relatively_inductive(self):
        """Whatever predict() returns must pass a consecution check."""
        predictor, frames, ts, stats = _predictor_setup(token_ring(4))
        frames.add_frame()
        frames.add_frame()
        l0, l1, l2, l3 = ts.latch_vars
        parent = Cube([l1, l2])
        frames.add_blocked_cube(parent, 1)
        bad = Cube([l1, l2, l3])
        predictor.record_push_failure(parent, 1, Cube([-l0, l1, l2, -l3]))
        prediction = predictor.predict(bad, 2)
        assert prediction is not None
        assert frames.consecution(1, prediction.cube).holds


class _ScriptedFrames:
    """A frame layer with one parent lemma whose every consecution query
    fails with a scripted successor state; it records what was asked."""

    def __init__(self, parent, successors):
        self.parent = parent
        self.successors = successors
        self.asked = []

    def lemmas_exactly_at(self, level):
        return [self.parent]

    def consecution(self, level, cube, reuse=True):
        self.asked.append(cube)
        successor = self.successors.get(len(self.asked))
        return ConsecutionResult(holds=False, successor=successor)


class TestCandidateSearch:
    """Lines 22-27 of Algorithm 2 on a scripted frame layer."""

    def test_failed_candidate_refines_the_diff_set(self):
        parent = Cube([1])
        bad = Cube([1, 2, 3, 4])
        # The first candidate's CTP agrees with bad on 2 and 3, so only 4
        # is left to try (line 27).
        frames = _ScriptedFrames(parent, {1: Cube([1, 2, 3, -4])})
        predictor = LemmaPredictor(frames, IC3Stats())
        predictor.record_push_failure(parent, 1, Cube([1, -2, -3, -4]))
        assert predictor.predict(bad, 2) is None
        assert frames.asked == [Cube([1, 2]), Cube([1, 4])]

    def test_queries_stop_at_the_budget(self):
        parent = Cube([1])
        bad = Cube(range(1, 13))
        frames = _ScriptedFrames(parent, {})  # failures without a successor
        stats = IC3Stats()
        predictor = LemmaPredictor(frames, stats)
        predictor.record_push_failure(parent, 1, Cube([1] + [-v for v in range(2, 13)]))
        assert predictor.predict(bad, 2) is None
        assert stats.prediction_queries == len(frames.asked) == MAX_PREDICTION_QUERIES == 8


SECTION_3_2_CASES = [
    "parity_w5_safe",
    "johnson_w12_safe",
    "arb_n4_safe",
    "ovf_w5_unsafe",
    "arb_n4_unsafe",
    "fifo_w3_unsafe",
]


def test_every_prediction_satisfies_section_3_2(monkeypatch):
    """Eq. 3 (c3 ⊆ b) and Eq. 4 (c2 ⊆ c3) on every prediction RIC3-pl and
    IC3ref-pl make, and Eq. 2 (c3 excludes the CTP) on every extended one."""
    predict = LemmaPredictor.predict
    kinds = Counter()

    def checked_predict(self, bad_cube, level):
        prediction = predict(self, bad_cube, level)
        if prediction is not None:
            c3 = prediction.cube
            assert prediction.parent.literal_set <= c3.literal_set  # Eq. 4
            assert c3.literal_set <= bad_cube.literal_set  # Eq. 3
            if prediction.kind == "extended":
                # The CTP this prediction was derived from: no query of
                # the extension loop writes the table.
                ctp_state = self.table.lookup(prediction.parent, level - 1)
                assert diff(c3, ctp_state)  # Eq. 2
            kinds[prediction.kind] += 1
        return prediction

    monkeypatch.setattr(LemmaPredictor, "predict", checked_predict)
    configs = [c for c in paper_configurations() if c.name in ("RIC3-pl", "IC3ref-pl")]
    cases = {case.name: case for case in bench_suite()}
    for name in SECTION_3_2_CASES:
        for config in configs:
            outcome = IC3(cases[name].aig, config.options).check(time_limit=60)
            assert outcome.result == cases[name].expected, (name, config.name)
    assert kinds["extended"] > 0 and kinds["push-parent"] > 0
