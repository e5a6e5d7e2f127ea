"""Frame-query answers build their fields on first read.

An UNSAT consecution answer keeps a snapshot of the assumption core and
builds ``core_cube`` from it; a SAT answer, and a ``BadState``, keeps the
model's input values and decodes ``inputs`` and ``input_values`` from
them.  Read at any later time, after any number of other solves, each
field must equal its definition taken right after the solve that
answered: the core cube is the cube's literals whose primed copy is in
the core, and the inputs are the model's projection onto the input
variables.  A query the witness store answers returns the stored answer
object itself.
"""

import pickle
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.aiger import AIG
from repro.core.frames import MonolithicFrameManager
from repro.core.options import IC3Options
from repro.core.stats import IC3Stats
from repro.logic import Clause, Cube
from repro.sat.arena import ArenaSolver
from repro.ts import TransitionSystem


@st.composite
def small_models(draw):
    """A random AIG with up to 3 inputs, 1-4 latches and a few gates."""
    aig = AIG(comment="random")
    signals = [aig.add_input() for _ in range(draw(st.integers(0, 3)))]
    latches = [
        aig.add_latch(init=draw(st.sampled_from([0, 1, None])))
        for _ in range(draw(st.integers(1, 4)))
    ]
    signals += latches
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.sampled_from(signals)), draw(st.sampled_from(signals))
        signals.append(aig.add_and(a ^ draw(st.integers(0, 1)), b ^ draw(st.integers(0, 1))))
    for latch in latches:
        # Holding latches make self-loops, and so the consecution fallback.
        next_lit = latch if draw(st.booleans()) else draw(st.sampled_from(signals))
        aig.set_latch_next(latch, next_lit ^ draw(st.integers(0, 1)))
    aig.add_bad(draw(st.sampled_from(signals)) ^ draw(st.integers(0, 1)))
    return aig


class _Solves:
    """Records, after every ArenaSolver solve, the eager definitions of
    what a frame-query answer built from that solve must hold."""

    def __init__(self, ts):
        self.ts = ts
        self.count = 0
        self.last = None
        original = ArenaSolver.solve

        def solve(solver, assumptions=(), conflict_budget=None):
            answer = original(solver, assumptions, conflict_budget)
            self.count += 1
            self.last = self._definitions(solver, answer)
            return answer

        self.patch = mock.patch.object(ArenaSolver, "solve", solve)

    def _definitions(self, solver, satisfiable):
        ts = self.ts
        if not satisfiable:
            return set(solver.unsat_core())
        model = solver.get_model()
        return {
            "state": Cube(v if model.get(v, False) else -v for v in ts.latch_vars),
            "successor": Cube(
                v if model.get(ts.primed_of[v], False) else -v for v in ts.latch_vars
            ),
            "inputs": Cube(solver.model_literals(list(ts.input_vars))),
            "input_values": {
                lit: model.get(var, False) for lit, var in zip(ts.aig.inputs, ts.input_vars)
            },
        }


def _consecution_definition(ts, cube, last):
    """What the answer of ``consecution(·, cube)`` must read as."""
    if isinstance(last, set):
        core = Cube(lit for lit in cube if ts.prime_lit(lit) in last)
        return {"holds": True, "core_cube": core}
    return {
        "holds": False,
        "predecessor": last["state"],
        "successor": last["successor"],
        "inputs": last["inputs"],
        "input_values": last["input_values"],
    }


def _read(answer, fields):
    return {name: getattr(answer, name) for name in fields}


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(aig=small_models(), data=st.data())
def test_lazy_fields_equal_their_definitions(frame_substrate, aig, data):
    ts = TransitionSystem(aig)
    stats = IC3Stats()
    frames = frame_substrate(ts, IC3Options(), stats)
    for _ in range(data.draw(st.integers(1, 3))):
        frames.add_frame()
    latch_lits = [lit for var in ts.latch_vars for lit in (var, -var)]
    cubes = st.lists(st.sampled_from(latch_lits), min_size=1, max_size=len(ts.latch_vars))
    solves = _Solves(ts)
    answers = []  # (answer, expected fields)
    by_id = {}
    with solves.patch:
        for _ in range(data.draw(st.integers(1, 12))):
            kind = data.draw(st.sampled_from(["consecution", "consecution", "bad", "lemma"]))
            level = data.draw(st.integers(0, frames.top_level))
            literals = data.draw(cubes)
            if any(-lit in literals for lit in literals):
                continue
            cube = Cube(literals)
            if kind == "lemma":
                frames.add_blocked_cube(cube, max(level, 1))
                continue
            before = solves.count
            if kind == "bad":
                answer = frames.get_bad_state(level)
                if answer is None:
                    continue
                last = solves.last
                expected = {
                    "state": last["state"],
                    "inputs": last["inputs"],
                    "input_values": last["input_values"],
                }
            else:
                answer = frames.consecution(level, cube, reuse=data.draw(st.booleans()))
                if solves.count == before:
                    # Answered from the store: the stored object itself.
                    assert id(answer) in by_id
                    continue
                expected = _consecution_definition(ts, cube, solves.last)
            by_id[id(answer)] = answer
            answers.append((answer, expected))
            if data.draw(st.booleans()):
                assert _read(answer, expected) == expected
    # Every field read after all later solves, decoded or not before.
    for answer, expected in answers:
        assert _read(answer, expected) == expected
        assert _read(answer, expected) == expected  # a second read agrees


def _fallback_manager():
    """Two latches: ``hold`` keeps its value, ``flip`` becomes the input."""
    aig = AIG(comment="fallback")
    data = aig.add_input()
    hold = aig.add_latch(init=0)
    flip = aig.add_latch(init=0)
    aig.set_latch_next(hold, hold)
    aig.set_latch_next(flip, data)
    aig.add_bad(aig.add_and(hold, flip))
    ts = TransitionSystem(aig)
    stats = IC3Stats()
    frames = MonolithicFrameManager(ts, IC3Options(), stats)
    frames.add_frame()
    return frames, ts, stats


class TestFallback:
    """The monolithic substrate's self-loop fallback solves twice; the
    answer describes the second solve, even when read after others."""

    def test_unsat_core_is_the_second_solves(self):
        frames, ts, stats = _fallback_manager()
        hold, _ = ts.latch_vars
        # Only ``hold`` reaches ``hold``: the relaxed answer lies inside
        # the cube, and the exact query is UNSAT.
        cube = Cube([hold])
        solves = _Solves(ts)
        with solves.patch:
            answer = frames.consecution(1, cube)
            assert solves.count == 2 and stats.consecution_fallbacks == 1
            expected = _consecution_definition(ts, cube, solves.last)
            assert frames.get_bad_state(1) is not None  # a later SAT solve
        assert answer.holds
        assert _read(answer, expected) == expected

    def test_sat_model_is_the_second_solves(self):
        fallbacks = 0
        for polarity in (1, -1):
            frames, ts, stats = _fallback_manager()
            hold, flip = ts.latch_vars
            # Both values of ``flip`` reach either value of ``flip``: when
            # the relaxed answer lies inside the cube, the exact one does not.
            cube = Cube([polarity * flip])
            solves = _Solves(ts)
            with solves.patch:
                answer = frames.consecution(1, cube)
                expected = _consecution_definition(ts, cube, solves.last)
                assert not frames.consecution(1, Cube([hold, -flip]), reuse=False).holds
            assert not answer.holds
            assert not cube.literal_set <= answer.predecessor.literal_set
            assert _read(answer, expected) == expected
            fallbacks += stats.consecution_fallbacks
        assert fallbacks >= 1


def test_keyword_answers_keep_their_fields():
    from repro.core.frames import ConsecutionResult

    held = ConsecutionResult(holds=True, core_cube=Cube([1]))
    assert (held.core_cube, held.predecessor, held.input_values) == (Cube([1]), None, {})
    failed = ConsecutionResult(
        holds=False, predecessor=Cube([1]), inputs=Cube([]), successor=Cube([-1])
    )
    assert (failed.inputs, failed.successor, failed.input_values) == (Cube([]), Cube([-1]), {})
    assert "holds=False" in repr(failed)


literal_lists = st.lists(st.integers(1, 12).flatmap(lambda v: st.sampled_from([v, -v])))


@settings(max_examples=200, deadline=None)
@given(literals=literal_lists, kind=st.sampled_from([Cube, Clause]), hashed=st.booleans())
def test_hash_and_pickle(literals, kind, hashed):
    value = kind(literals)
    expected_hash = hash((kind.__name__, value.literals))
    if hashed:
        assert hash(value) == expected_hash
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is kind
    assert copy == value and copy.literal_set == value.literal_set
    assert hash(copy) == hash(value) == expected_hash
    assert {copy: 1}[value] == 1
