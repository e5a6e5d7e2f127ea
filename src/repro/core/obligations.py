"""Proof obligations and their priority queue.

IC3's blocking phase maintains a set of *proof obligations* — cubes that
must be blocked at a given frame.  Obligations are handled lowest frame
first (and, within a frame, deepest/oldest first), which is what makes the
explicit backward search of IC3 terminate.  Each obligation keeps a link to
the obligation it is a predecessor of, so a concrete counterexample trace
can be reconstructed when an obligation reaches frame 0.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.logic.cube import Cube


@dataclass
class Obligation:
    """A cube that must be shown unreachable within ``level`` steps."""

    level: int
    depth: int
    cube: Cube
    inputs: Dict[int, bool] = field(default_factory=dict)
    """Input values that drive this state into ``successor``'s cube."""

    successor: Optional["Obligation"] = None
    """The obligation this one is a predecessor of (None for the bad cube)."""

    def chain_to_bad(self) -> List["Obligation"]:
        """The obligation chain from this one up to the original bad cube."""
        chain: List[Obligation] = []
        node: Optional[Obligation] = self
        while node is not None:
            chain.append(node)
            node = node.successor
        return chain


class ObligationQueue:
    """Priority queue of obligations ordered by (level, depth, age)."""

    def __init__(self) -> None:
        self._heap: List = []
        self._counter = itertools.count()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def is_empty(self) -> bool:
        """True if no obligation is pending."""
        return self._size == 0

    def push(self, obligation: Obligation) -> None:
        """Add an obligation."""
        heapq.heappush(
            self._heap,
            (obligation.level, -obligation.depth, next(self._counter), obligation),
        )
        self._size += 1

    def pop(self) -> Obligation:
        """Remove and return the obligation with the lowest level."""
        if self._size == 0:
            raise IndexError("pop from an empty obligation queue")
        _, _, _, obligation = heapq.heappop(self._heap)
        self._size -= 1
        return obligation

    def clear(self) -> None:
        """Drop all pending obligations."""
        self._heap.clear()
        self._size = 0
