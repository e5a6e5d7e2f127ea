"""Lemma prediction from counterexamples to propagation (the paper's core).

When a lemma ``¬c2`` of frame ``F_{i-1}`` fails to be pushed to ``F_i``,
the failed SAT query produces a *counterexample to propagation* (CTP): a
successor state ``t`` with ``t ⊨ c2`` that is still reachable from
``F_{i-1}``.  :class:`CtpTable` records these states keyed by
``(lemma, level)``, exactly like the ``failure_push`` hash table of
Algorithm 2.

Later, when IC3 must block a cube ``b`` at level ``i`` and ``¬c2`` is a
*parent lemma* of ``¬b`` (``c2 ⊆ b``), :class:`LemmaPredictor` tries to
skip the literal-dropping generalization altogether:

* if ``diff(b, t) = ∅`` the cubes ``b`` and ``t`` intersect, so blocking
  ``b`` may have invalidated the CTP — try to push the parent lemma itself;
* otherwise each literal ``d ∈ diff(b, t)`` yields the candidate
  ``c3 = c2 ∪ {d}`` (Equation 6), which excludes ``t``, still contains
  ``b`` and is only one literal larger than the parent — a single
  consecution query validates it.

A failed candidate returns a fresh CTP which refines the diff set before
the next candidate is tried (line 27).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.frames import FrameManagerBase
from repro.core.stats import IC3Stats
from repro.logic.cube import Cube, diff


MAX_PREDICTION_QUERIES = 8
"""Upper bound on the SAT queries one generalization spends on predictions."""


@dataclass
class Prediction:
    """A successful prediction."""

    cube: Cube
    """The predicted blocked cube (the lemma is its negation)."""

    parent: Cube
    """The parent lemma's cube c2 the prediction was derived from."""

    kind: str
    """Either ``"push-parent"`` (diff set empty) or ``"extended"`` (Eq. 6)."""


class CtpTable:
    """The ``failure_push`` hash table of Algorithm 2.

    An entry is a CTP state, or a *lazy* entry: the mask of witnesses
    :meth:`FrameManagerBase.refuted_push` returned for a push the
    propagation sweep skipped.  :meth:`lookup` resolves a lazy entry,
    through the frame manager ``store``, to the successor a store answer
    would have returned at that point (see :class:`FrameManagerBase`), so
    callers only ever see cubes.
    """

    def __init__(self, store: Optional[FrameManagerBase] = None) -> None:
        self._store = store
        self._entries: Dict[Tuple[Cube, int], Union[Cube, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[Cube, int]) -> bool:
        return key in self._entries

    def record(self, lemma_cube: Cube, level: int, successor: Cube) -> None:
        """Store the CTP successor state for a failed push of ``¬lemma_cube``."""
        self._entries[(lemma_cube, level)] = successor

    def record_refuted(self, lemma_cube: Cube, level: int, usable: int) -> None:
        """Store a skipped push's witness mask, resolved on first lookup."""
        self._entries[(lemma_cube, level)] = usable

    def lookup(self, lemma_cube: Cube, level: int) -> Optional[Cube]:
        """The recorded CTP state for ``(lemma, level)``, if any."""
        key = (lemma_cube, level)
        entry = self._entries.get(key)
        if type(entry) is int:
            entry = self._store.refuting_successor(lemma_cube, entry)
            self._entries[key] = entry
        return entry

    def clear(self) -> None:
        """Drop every entry (Algorithm 2 line 44)."""
        self._entries.clear()

    def entries(self) -> Dict[Tuple[Cube, int], Cube]:
        """A copy of the table content (for inspection and tests)."""
        return {key: self.lookup(*key) for key in list(self._entries)}


class LemmaPredictor:
    """Implements the prediction part of Algorithm 2 (lines 10-27)."""

    def __init__(self, frames: FrameManagerBase, stats: IC3Stats):
        self.frames = frames
        self.stats = stats
        self.table = CtpTable(frames)

    # ------------------------------------------------------------------
    # Table maintenance (lines 36-38 and 43-50 of Algorithm 2)
    # ------------------------------------------------------------------
    def record_push_failure(self, lemma_cube: Cube, level: int, successor: Optional[Cube]) -> None:
        """Record the CTP obtained when ``¬lemma_cube`` failed to reach level+1."""
        if successor is None:
            return
        self.table.record(lemma_cube, level, successor)
        self.stats.ctp_recorded += 1

    def record_refuted_push(self, lemma_cube: Cube, level: int, usable: int) -> None:
        """Record the CTP of a push the sweep skipped, given the witness
        mask :meth:`FrameManagerBase.refuted_push` returned for it."""
        self.table.record_refuted(lemma_cube, level, usable)
        self.stats.ctp_recorded += 1

    def clear_table(self) -> None:
        """Clear the failure-push table (start of each propagation phase)."""
        if len(self.table):
            self.stats.ctp_table_clears += 1
        self.table.clear()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def parent_lemmas(self, cube: Cube, level: int) -> List[Cube]:
        """Parent lemmas of ``¬cube`` at ``level``: cubes of F_level \\ F_{level+1} contained in ``cube``."""
        if level < 1:
            return []
        cube_lits = cube.literal_set
        return [
            parent
            for parent in self.frames.lemmas_exactly_at(level)
            if parent.literal_set <= cube_lits
        ]

    def predict(self, bad_cube: Cube, level: int) -> Optional[Prediction]:
        """Try to predict a lemma blocking ``bad_cube`` at ``level``.

        Returns a :class:`Prediction` whose cube can be blocked at
        ``level`` (its negation is inductive relative to ``F_{level-1}``),
        or None when no usable parent lemma / candidate validates.
        """
        parents = self.parent_lemmas(bad_cube, level - 1)
        self.stats.parent_lemmas_found += len(parents)
        if not parents:
            return None

        queries_left = MAX_PREDICTION_QUERIES
        found_ctp_parent = False

        for parent in parents:
            ctp_state = self.table.lookup(parent, level - 1)
            if ctp_state is None:
                continue  # no failed push recorded for this parent (lines 12-13)
            if not found_ctp_parent:
                found_ctp_parent = True
                self.stats.parent_lemma_hits += 1

            prediction = self._predict_from_parent(
                bad_cube, parent, ctp_state, level, queries_left
            )
            if isinstance(prediction, Prediction):
                self.stats.prediction_successes += 1
                return prediction
            queries_left = prediction
            if queries_left <= 0:
                break
        return None

    def _predict_from_parent(
        self,
        bad_cube: Cube,
        parent: Cube,
        ctp_state: Cube,
        level: int,
        queries_left: int,
    ):
        """Run lines 14-27 of Algorithm 2 for one parent lemma.

        Returns either a :class:`Prediction` or the remaining query budget.
        """
        diff_set = diff(bad_cube, ctp_state)

        if not diff_set:
            # The CTP intersects the cube being blocked: blocking bad_cube may
            # have removed the obstacle, so try to push the parent itself.
            if queries_left <= 0:
                return queries_left
            result = self.frames.consecution(level - 1, parent)
            self.stats.prediction_queries += 1
            queries_left -= 1
            if result.holds:
                self.stats.predicted_push_parent += 1
                return Prediction(cube=parent, parent=parent, kind="push-parent")
            self.record_push_failure(parent, level - 1, result.successor)
            return queries_left

        # Equation 6: extend the parent cube by one literal of the diff set.
        remaining = sorted(diff_set, key=abs)
        while remaining and queries_left > 0:
            literal = remaining.pop(0)
            candidate = parent.extended(literal)
            result = self.frames.consecution(level - 1, candidate)
            self.stats.prediction_queries += 1
            queries_left -= 1
            if result.holds:
                self.stats.predicted_extended += 1
                return Prediction(cube=candidate, parent=parent, kind="extended")
            # Line 27: the new counterexample successor is (very likely) another
            # CTP of the parent; eliminate candidates it also defeats.
            if result.successor is not None:
                refined = diff_set & diff(bad_cube, result.successor)
                remaining = [l for l in remaining if l in refined]
        return queries_left
