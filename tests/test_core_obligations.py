"""Tests for proof obligations and their priority queue."""

import pytest

from repro.core.obligations import Obligation, ObligationQueue
from repro.logic import Cube


class TestObligation:
    def test_chain_to_bad(self):
        root = Obligation(level=3, depth=0, cube=Cube([1]))
        middle = Obligation(level=2, depth=1, cube=Cube([2]), successor=root)
        leaf = Obligation(level=1, depth=2, cube=Cube([3]), successor=middle)
        chain = leaf.chain_to_bad()
        assert [o.cube for o in chain] == [Cube([3]), Cube([2]), Cube([1])]

    def test_chain_of_single_obligation(self):
        root = Obligation(level=1, depth=0, cube=Cube([1]))
        assert root.chain_to_bad() == [root]

    def test_inputs_default_empty(self):
        assert Obligation(level=1, depth=0, cube=Cube([1])).inputs == {}


class TestObligationQueue:
    def test_empty_queue(self):
        queue = ObligationQueue()
        assert queue.is_empty()
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.pop()

    def test_lowest_level_first(self):
        queue = ObligationQueue()
        queue.push(Obligation(level=3, depth=0, cube=Cube([1])))
        queue.push(Obligation(level=1, depth=0, cube=Cube([2])))
        queue.push(Obligation(level=2, depth=0, cube=Cube([3])))
        assert queue.pop().level == 1
        assert queue.pop().level == 2
        assert queue.pop().level == 3

    def test_deeper_first_within_level(self):
        queue = ObligationQueue()
        shallow = Obligation(level=2, depth=1, cube=Cube([1]))
        deep = Obligation(level=2, depth=5, cube=Cube([2]))
        queue.push(shallow)
        queue.push(deep)
        assert queue.pop() is deep
        assert queue.pop() is shallow

    def test_fifo_among_equal_priorities(self):
        queue = ObligationQueue()
        first = Obligation(level=1, depth=0, cube=Cube([1]))
        second = Obligation(level=1, depth=0, cube=Cube([2]))
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_len_tracks_push_pop(self):
        queue = ObligationQueue()
        for level in range(5):
            queue.push(Obligation(level=level, depth=0, cube=Cube([level + 1])))
        assert len(queue) == 5
        queue.pop()
        assert len(queue) == 4

    def test_clear(self):
        queue = ObligationQueue()
        queue.push(Obligation(level=1, depth=0, cube=Cube([1])))
        queue.clear()
        assert queue.is_empty()
