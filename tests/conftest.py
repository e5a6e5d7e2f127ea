"""Shared fixtures for the test suite."""

import weakref

import pytest

from repro.core.frames import FrameManagerBase
from repro.sat.solver import Solver


def assert_witness_answers(solver, frames, level, cube, result):
    """Re-solve a consecution answered from the witness store.

    ``solver`` is a reference solver loaded with T.  With the lemmas of
    the logical frame ``F_level`` behind one fresh guard variable and
    ``¬cube`` behind another, the exact query ``F_level ∧ ¬cube ∧ T ∧
    cube'`` must be SAT, and so must ``F_level ∧ s ∧ i ∧ T ∧ t'`` for the
    returned pre-state ``s``, inputs ``i`` and successor ``t``.  Both
    guards are then fixed false, so their clauses never constrain a later
    query.
    """
    ts = frames.ts
    assert level >= 1, "the witness store answered a frame-0 query"
    assert not result.holds
    state, successor = result.predecessor, result.successor
    assert len(state) == len(successor) == len(ts.latch_vars)
    assert cube.literal_set <= successor.literal_set
    assert not cube.literal_set <= state.literal_set

    frame = _guard(solver, [clause.literals for clause in frames.frame_clauses(level)])
    negation = _guard(solver, [[-lit for lit in cube]])
    try:
        assert solver.solve([frame, negation] + [ts.prime_lit(lit) for lit in cube]), (
            f"reused a witness for {cube} at level {level} whose query is UNSAT"
        )
        transition = (
            list(state) + list(result.inputs) + [ts.prime_lit(lit) for lit in successor]
        )
        assert solver.solve([frame] + transition), (
            f"stored transition for {cube} at level {level} left F_{level} ∧ T"
        )
    finally:
        solver.add_clause([-frame])
        solver.add_clause([-negation])


def _guard(solver, clauses):
    """A fresh variable that, assumed true, enables ``clauses``."""
    guard = solver.new_var()
    for literals in clauses:
        solver.add_clause([-guard, *literals])
    return guard


def _trans_solver(ts):
    solver = Solver()
    solver.ensure_var(ts.num_vars)
    for clause in ts.trans:
        solver.add_clause(clause)
    return solver


@pytest.fixture
def checked_reuses(monkeypatch):
    """Re-solve every consecution the witness store answers, and every
    push the propagation sweep skips (``FrameManagerBase.refuted_push``).

    A skipped push is checked with the answer the store would have given
    it: the newest refuting witness among the usable ones, which is also
    what its lazy CTP resolves to.  Returns the answers as ``(level,
    cube, result)`` in the order given.
    """
    reuses = []
    solvers = weakref.WeakKeyDictionary()
    reuse_witness = FrameManagerBase._reuse_witness
    refuted_push = FrameManagerBase.refuted_push

    def check(frames, level, cube, result):
        if frames not in solvers:
            solvers[frames] = _trans_solver(frames.ts)
        assert_witness_answers(solvers[frames], frames, level, cube, result)
        reuses.append((level, cube, result))

    def checked_reuse(self, level, cube):
        result = reuse_witness(self, level, cube)
        if result is not None:
            check(self, level, cube, result)
        return result

    def checked_skip(self, level, cube):
        usable = refuted_push(self, level, cube)
        if usable:
            assert usable == self._usable[level]
            index = self._refuting_witness(cube, usable)
            assert index >= 0, f"skipped a push of {cube} at level {level} no witness refutes"
            check(self, level, cube, self._stored_answer(index))
        return usable

    monkeypatch.setattr(FrameManagerBase, "_reuse_witness", checked_reuse)
    monkeypatch.setattr(FrameManagerBase, "refuted_push", checked_skip)
    return reuses
