"""Tests for the VSIDS order heap."""

import random

import pytest

from repro.sat.heap import VarOrderHeap


class TestVarOrderHeap:
    def test_empty(self):
        heap = VarOrderHeap(lambda v: 0.0)
        assert heap.is_empty()
        assert len(heap) == 0
        with pytest.raises(IndexError):
            heap.pop_max()

    def test_insert_and_pop_max(self):
        activity = {1: 1.0, 2: 5.0, 3: 3.0}
        heap = VarOrderHeap(lambda v: activity[v])
        for var in activity:
            heap.insert(var)
        assert heap.pop_max() == 2
        assert heap.pop_max() == 3
        assert heap.pop_max() == 1

    def test_duplicate_insert_is_noop(self):
        heap = VarOrderHeap(lambda v: 0.0)
        heap.insert(1)
        heap.insert(1)
        assert len(heap) == 1

    def test_contains(self):
        heap = VarOrderHeap(lambda v: 0.0)
        heap.insert(4)
        assert 4 in heap
        assert 5 not in heap
        heap.pop_max()
        assert 4 not in heap

    def test_update_after_activity_bump(self):
        activity = {1: 1.0, 2: 2.0}
        heap = VarOrderHeap(lambda v: activity[v])
        heap.insert(1)
        heap.insert(2)
        activity[1] = 10.0
        heap.update(1)
        assert heap.pop_max() == 1

    def test_update_of_absent_variable_is_noop(self):
        heap = VarOrderHeap(lambda v: 0.0)
        heap.update(42)  # must not raise
        assert heap.is_empty()

    def test_random_sequences_pop_in_activity_order(self):
        rng = random.Random(1)
        activity = {v: rng.random() for v in range(1, 60)}
        heap = VarOrderHeap(lambda v: activity[v])
        for var in activity:
            heap.insert(var)
        popped = [heap.pop_max() for _ in range(len(activity))]
        expected = sorted(activity, key=lambda v: -activity[v])
        assert popped == expected

    def test_interleaved_insert_pop(self):
        rng = random.Random(7)
        activity = {v: rng.random() for v in range(1, 40)}
        heap = VarOrderHeap(lambda v: activity[v])
        present = set()
        for step in range(300):
            if present and rng.random() < 0.4:
                top = heap.pop_max()
                assert activity[top] == max(activity[v] for v in present)
                present.discard(top)
            else:
                var = rng.randint(1, 39)
                heap.insert(var)
                present.add(var)
        assert len(heap) == len(present)
