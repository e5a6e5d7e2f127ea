"""Inductive generalization (MIC) strategies.

Given a cube that is known to be blockable at level ``i`` (its negation is
inductive relative to ``F_{i-1}``), generalization drops literals one at a
time — each drop paid for with a consecution SAT query — to obtain a small,
strong lemma.  This is the most expensive part of IC3 and the part the
paper's lemma prediction tries to bypass.

Drop attempts always run on the SAT solver (``reuse=False``): the
frame manager's witness store would answer most failed drops from stored
models, and the failed drops are exactly the cost prediction avoids.
When they were answered from the store, RIC3 and RIC3-pl made 791 and
819 SAT-backed consecution calls on parity_w5: the same work, which
erases the comparison of Table 1 and Figures 3-4.  The models of drop
attempts are still stored for the other callers.

Three strategies are provided:

* :class:`BasicGeneralizer` — the standard drop loop of Algorithm 1, with
  assumption-core shrinking after every successful query;
* :class:`CtgGeneralizer` — additionally blocks counterexamples to
  generalization (Hassan et al., FMCAD'13) so that more drops succeed;
* :class:`ParentOrderedGeneralizer` — orders literals so that those not
  occurring in a parent lemma of the previous frame are dropped first
  (the CAV'23 "i-Good lemmas" heuristic of Xia et al.).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.frames import FrameManagerBase
from repro.core.options import GeneralizationStrategy, IC3Options, LiteralOrdering
from repro.core.stats import IC3Stats
from repro.logic.cube import Cube
from repro.ts.system import TransitionSystem


MAX_CTGS = 3
"""How many counterexamples to generalization the CTG strategy blocks per
literal drop (IC3ref's ctgDown)."""


class Generalizer:
    """Base class: owns the literal ordering and the shared drop loop."""

    def __init__(
        self,
        frames: FrameManagerBase,
        ts: TransitionSystem,
        options: IC3Options,
        stats: IC3Stats,
        literal_activity: Dict[int, float],
    ):
        self.frames = frames
        self.ts = ts
        self.options = options
        self.stats = stats
        self.literal_activity = literal_activity

    # ------------------------------------------------------------------
    # Literal ordering
    # ------------------------------------------------------------------
    def order_literals(self, cube: Cube, level: int) -> List[int]:
        """The order in which literals are *tried for dropping*."""
        literals = list(cube)
        ordering = self.options.literal_ordering
        if ordering == LiteralOrdering.INDEX:
            literals.sort(key=abs)
        elif ordering == LiteralOrdering.ACTIVITY:
            # Drop the least active literals first so that literals appearing
            # in many lemmas are kept (they are likely load-bearing).
            literals.sort(key=lambda l: (self.literal_activity.get(abs(l), 0.0), abs(l)))
        return literals

    # ------------------------------------------------------------------
    # The drop loop
    # ------------------------------------------------------------------
    def generalize(self, cube: Cube, level: int) -> Cube:
        """Return a sub-cube of ``cube`` still blockable at ``level``
        (one pass over the literals, as in IC3ref's MIC)."""
        current = cube
        for literal in self.order_literals(cube, level):
            if literal not in current or len(current) <= 1:
                continue
            candidate = current.without(literal)
            if self.ts.cube_intersects_init(candidate):
                continue
            dropped = self._attempt_drop(candidate, level)
            if dropped is not None:
                current = dropped
        return current

    def _attempt_drop(self, candidate: Cube, level: int) -> Optional[Cube]:
        """Check one candidate; returns the (possibly core-shrunk) cube or None."""
        self.stats.mic_drop_attempts += 1
        result = self.frames.consecution(level - 1, candidate, reuse=False)
        if not result.holds:
            return None
        self.stats.mic_drop_successes += 1
        return self.apply_core(candidate, result.core_cube)

    def apply_core(self, candidate: Cube, core_cube: Optional[Cube]) -> Cube:
        """Shrink to the assumption core when it is usable (non-empty and
        disjoint from the initial states)."""
        if (
            core_cube is None
            or core_cube.is_empty()
            or self.ts.cube_intersects_init(core_cube)
        ):
            return candidate
        return core_cube


class BasicGeneralizer(Generalizer):
    """The standard MIC of Algorithm 1 (drop literals one by one)."""


class CtgGeneralizer(Generalizer):
    """MIC that blocks counterexamples to generalization (CTGs).

    When dropping a literal fails, the counterexample-to-induction state is
    itself tried as a lemma (up to :data:`MAX_CTGS` times per drop); blocking
    it strengthens the frame and frequently lets the original drop succeed
    on retry.  This is IC3ref's ctgDown at depth 1: a CTG is blocked with
    its consecution core, not generalized recursively.
    """

    def _attempt_drop(self, candidate: Cube, level: int) -> Optional[Cube]:
        ctgs_blocked = 0
        while True:
            self.stats.mic_drop_attempts += 1
            result = self.frames.consecution(level - 1, candidate, reuse=False)
            if result.holds:
                self.stats.mic_drop_successes += 1
                return self.apply_core(candidate, result.core_cube)
            if ctgs_blocked >= MAX_CTGS or result.predecessor is None:
                return None
            ctg = result.predecessor
            if self.ts.cube_intersects_init(ctg):
                return None
            ctg_result = self.frames.consecution(level - 1, ctg)
            if not ctg_result.holds:
                return None
            blocked = self.apply_core(ctg, ctg_result.core_cube)
            if self.ts.cube_intersects_init(blocked):
                blocked = ctg
            self.frames.add_blocked_cube(blocked, min(level, self.frames.top_level))
            self.stats.ctg_blocked += 1
            ctgs_blocked += 1


class ParentOrderedGeneralizer(Generalizer):
    """MIC with the CAV'23 parent-lemma literal ordering.

    Literals that occur in a parent lemma of the previous frame are kept
    for last (and therefore tend to survive), which raises the probability
    that the resulting lemma can be propagated forward.
    """

    def order_literals(self, cube: Cube, level: int) -> List[int]:
        base_order = super().order_literals(cube, level)
        parent_literals = set()
        cube_lits = cube.literal_set
        for parent in self.frames.lemmas_exactly_at(level - 1):
            if parent.literal_set <= cube_lits:
                parent_literals.update(parent.literal_set)
        # Non-parent literals first (dropped first), parent literals last.
        return sorted(base_order, key=lambda l: (l in parent_literals, base_order.index(l)))


def make_generalizer(
    frames: FrameManagerBase,
    ts: TransitionSystem,
    options: IC3Options,
    stats: IC3Stats,
    literal_activity: Dict[int, float],
) -> Generalizer:
    """Instantiate the generalizer selected by the options."""
    strategy = options.generalization
    if strategy == GeneralizationStrategy.BASIC:
        cls: type = BasicGeneralizer
    elif strategy == GeneralizationStrategy.CTG:
        cls = CtgGeneralizer
    elif strategy == GeneralizationStrategy.PARENT_ORDERED:
        cls = ParentOrderedGeneralizer
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown generalization strategy: {strategy!r}")
    return cls(frames, ts, options, stats, literal_activity)
