"""Indexed max-heap over variable activities (the VSIDS order heap).

The solver needs three operations to be fast: pop the unassigned variable
with the highest activity, re-insert a variable when it is unassigned on
backtracking, and sift a variable up when its activity is bumped.  A binary
heap with an index map (variable -> heap position) provides all three in
O(log n).
"""

from __future__ import annotations

from typing import Callable, Dict, List


class VarOrderHeap:
    """Max-heap of variables keyed by an external activity function.

    ``activity`` may be a callable or an indexable sequence; passing the
    activity list directly lets the hot sift loops use the C-level
    ``__getitem__`` instead of a Python lambda frame per comparison.
    """

    def __init__(self, activity: Callable[[int], float]):
        self._activity = activity if callable(activity) else activity.__getitem__
        self._heap: List[int] = []
        self._index: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, var: int) -> bool:
        return var in self._index

    def is_empty(self) -> bool:
        """True if no variable is queued."""
        return not self._heap

    def insert(self, var: int) -> None:
        """Insert a variable (no-op if already present)."""
        if var in self._index:
            return
        self._heap.append(var)
        self._index[var] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def pop_max(self) -> int:
        """Remove and return the variable with maximal activity."""
        if not self._heap:
            raise IndexError("pop from an empty heap")
        top = self._heap[0]
        last = self._heap.pop()
        del self._index[top]
        if self._heap:
            self._heap[0] = last
            self._index[last] = 0
            self._sift_down(0)
        return top

    def update(self, var: int) -> None:
        """Restore heap order after ``var``'s activity increased."""
        pos = self._index.get(var)
        if pos is not None:
            self._sift_up(pos)

    # -- internal sifting -----------------------------------------------------
    def _sift_up(self, pos: int) -> None:
        heap = self._heap
        act = self._activity
        var = heap[pos]
        key = act(var)
        while pos > 0:
            parent = (pos - 1) >> 1
            if act(heap[parent]) >= key:
                break
            heap[pos] = heap[parent]
            self._index[heap[pos]] = pos
            pos = parent
        heap[pos] = var
        self._index[var] = pos

    def _sift_down(self, pos: int) -> None:
        heap = self._heap
        act = self._activity
        size = len(heap)
        var = heap[pos]
        key = act(var)
        while True:
            left = 2 * pos + 1
            if left >= size:
                break
            right = left + 1
            child = left
            if right < size and act(heap[right]) > act(heap[left]):
                child = right
            if act(heap[child]) <= key:
                break
            heap[pos] = heap[child]
            self._index[heap[pos]] = pos
            pos = child
        heap[pos] = var
        self._index[var] = pos
