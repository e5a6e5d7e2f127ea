"""The flat-array evaluators against the dict-based ones they replaced.

``AIG.simulate`` and ``ternary_constants`` evaluate each step into one
list indexed by literal.  The references below are the earlier
implementations, one dictionary entry per literal, kept verbatim in
behaviour: the new evaluators must return the same records (keys, order,
value types and values) and the same constants, on random AIGs and on
the benchmark circuits.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.aiger import FALSE_LIT, TRUE_LIT, parse_aiger
from repro.benchgen import default_suite, monitored_counter, shadowed_ring
from repro.reduce import ternary_constants


# ----------------------------------------------------------------------
# References: the dict-based evaluators
# ----------------------------------------------------------------------
def reference_simulate(aig, input_sequence, initial_latches=None):
    latch_values: Dict[int, bool] = {}
    for latch in aig.latches:
        if initial_latches and latch.lit in initial_latches:
            latch_values[latch.lit] = bool(initial_latches[latch.lit])
        else:
            latch_values[latch.lit] = bool(latch.init) if latch.init else False

    trace: List[Dict[str, object]] = []
    for step_inputs in input_sequence:
        values = reference_evaluate(aig, step_inputs, latch_values)
        record = {
            "latches": {l.lit: latch_values[l.lit] for l in aig.latches},
            "inputs": {i: bool(step_inputs.get(i, False)) for i in aig.inputs},
            "outputs": [values[lit] for lit in aig.outputs],
            "bads": [values[lit] for lit in aig.bads],
            "constraints": [values[lit] for lit in aig.constraints],
            "justice": [[values[lit] for lit in group] for group in aig.justice],
            "fairness": [values[lit] for lit in aig.fairness],
        }
        trace.append(record)
        latch_values = {latch.lit: values[latch.next] for latch in aig.latches}
    return trace


def reference_evaluate(aig, step_inputs, latch_values):
    values: Dict[int, bool] = {FALSE_LIT: False, TRUE_LIT: True}

    def set_both(lit: int, value: bool) -> None:
        values[lit] = value
        values[lit ^ 1] = not value

    for lit in aig.inputs:
        set_both(lit, bool(step_inputs.get(lit, False)))
    for latch in aig.latches:
        set_both(latch.lit, latch_values[latch.lit])
    for gate in aig.ands:
        set_both(gate.lhs, values[gate.rhs0] and values[gate.rhs1])
    return values


_X = None


def reference_ternary_constants(aig) -> Dict[int, bool]:
    state: Dict[int, Optional[bool]] = {
        latch.lit: (bool(latch.init) if latch.init is not None else _X)
        for latch in aig.latches
    }
    while True:
        values = _reference_ternary(aig, state)
        changed = False
        for latch in aig.latches:
            current = state[latch.lit]
            if current is _X:
                continue
            if values[latch.next] != current:
                state[latch.lit] = _X
                changed = True
        if not changed:
            break
    return {lit: value for lit, value in state.items() if value is not _X}


def _reference_ternary(aig, latch_state):
    values: Dict[int, Optional[bool]] = {FALSE_LIT: False, TRUE_LIT: True}

    def set_both(lit, value):
        values[lit] = value
        values[lit ^ 1] = (not value) if value is not _X else _X

    for lit in aig.inputs:
        set_both(lit, _X)
    for latch in aig.latches:
        set_both(latch.lit, latch_state[latch.lit])
    for gate in aig.ands:
        a, b = values[gate.rhs0], values[gate.rhs1]
        if a is False or b is False:
            result = False
        elif a is _X or b is _X:
            result = _X
        else:
            result = True
        set_both(gate.lhs, result)
    return values


# ----------------------------------------------------------------------
# Random AIGs, written as AAG text so the kinds interleave freely
# ----------------------------------------------------------------------
@st.composite
def random_aigs(draw, max_vars=16):
    """A valid AIG of at most ``max_vars`` variables whose inputs, latches
    and ANDs take variables in any order, with AND lines in any order,
    undefined resets, constraints, justice and fairness, and sometimes an
    unused variable index."""
    kinds = draw(
        st.lists(
            st.sampled_from(["input", "latch", "latch", "and", "and", "and", "unused"]),
            min_size=1,
            max_size=max_vars,
        )
    )
    inputs, latch_lits, gates = [], [], []
    defined = [0]  # variable 0 is the constant

    def literal():
        return 2 * draw(st.sampled_from(defined)) + draw(st.integers(0, 1))

    for var, kind in enumerate(kinds, start=1):
        if kind == "input":
            inputs.append(2 * var)
        elif kind == "latch":
            latch_lits.append(2 * var)
        elif kind == "and":
            gates.append((2 * var, literal(), literal()))
        if kind != "unused":
            defined.append(var)

    latches = []
    for lit in latch_lits:
        reset = draw(st.sampled_from(["0", "1", str(lit)]))  # lit: undefined
        latches.append(f"{lit} {literal()} {reset}")
    outputs = [literal() for _ in range(draw(st.integers(0, 2)))]
    bads = [literal() for _ in range(draw(st.integers(0, 2)))]
    constraints = [literal() for _ in range(draw(st.integers(0, 2)))]
    justice = [
        [literal() for _ in range(draw(st.integers(1, 2)))]
        for _ in range(draw(st.integers(0, 2)))
    ]
    fairness = [literal() for _ in range(draw(st.integers(0, 2)))]

    lines = [
        f"aag {len(kinds)} {len(inputs)} {len(latches)} {len(outputs)} {len(gates)} "
        f"{len(bads)} {len(constraints)} {len(justice)} {len(fairness)}",
        *map(str, inputs),
        *latches,
        *map(str, outputs + bads + constraints),
        *[str(len(group)) for group in justice],
        *[str(lit) for group in justice for lit in group],
        *map(str, fairness),
        # The ASCII format lists AND gates in any order.
        *[f"{lhs} {a} {b}" for lhs, a, b in draw(st.permutations(gates))],
    ]
    aig = parse_aiger("\n".join(lines) + "\n")
    aig.validate()
    return aig


@st.composite
def simulations(draw, min_steps=1, max_steps=33):
    """An AIG, an input sequence and optional initial-latch overrides."""
    aig = draw(random_aigs())
    steps = draw(st.integers(min_steps, max_steps))
    # Missing inputs read as False; ints stand in for Booleans too.
    value = st.sampled_from([False, True, 0, 1])
    sequence = [
        {lit: draw(value) for lit in aig.inputs if draw(st.booleans())}
        for _ in range(steps)
    ]
    initial = None
    if draw(st.booleans()):
        initial = {
            latch.lit: draw(value) for latch in aig.latches if draw(st.booleans())
        }
    return aig, sequence, initial


def _same_records(actual, expected):
    # repr() compares keys, their order, and bool against int.
    assert repr(actual) == repr(expected)


class TestSimulateMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(simulations())
    def test_random_aigs(self, case):
        aig, sequence, initial = case
        _same_records(
            aig.simulate(sequence, initial_latches=initial),
            reference_simulate(aig, sequence, initial),
        )

    @settings(max_examples=25, deadline=None)
    @given(simulations(min_steps=33, max_steps=33))
    def test_33_step_traces(self, case):
        aig, sequence, initial = case
        records = aig.simulate(sequence, initial_latches=initial)
        assert len(records) == 33
        _same_records(records, reference_simulate(aig, sequence, initial))

    @settings(max_examples=100, deadline=None)
    @given(simulations(max_steps=1))
    def test_evaluate_combinational(self, case):
        aig, sequence, initial = case
        latch_values = {
            latch.lit: bool((initial or {}).get(latch.lit, latch.init))
            for latch in aig.latches
        }
        expected = reference_evaluate(aig, sequence[0], latch_values)
        actual = aig._evaluate_combinational(sequence[0], latch_values)
        assert {lit: actual[lit] for lit in expected} == expected

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: monitored_counter(3, noise=6, copies=2, safe=False),
            lambda: shadowed_ring(4, noise=4, safe=False),
        ],
        ids=["moncnt", "shring"],
    )
    def test_benchmark_circuits(self, factory):
        aig = factory().aig
        sequence = [
            {lit: (step * 5 + index) % 3 == 0 for index, lit in enumerate(aig.inputs)}
            for step in range(33)
        ]
        _same_records(aig.simulate(sequence), reference_simulate(aig, sequence))


class TestTernaryMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(random_aigs())
    def test_random_aigs(self, aig):
        constants = ternary_constants(aig)
        assert list(constants.items()) == list(reference_ternary_constants(aig).items())

    def test_default_suite(self):
        for case in default_suite():
            expected = reference_ternary_constants(case.aig)
            assert list(ternary_constants(case.aig).items()) == list(expected.items()), case.name

    def test_wide_circuit(self):
        aig = monitored_counter(3, noise=6, copies=2).aig
        expected = reference_ternary_constants(aig)
        assert expected  # the mode strap is stuck at 0
        assert list(ternary_constants(aig).items()) == list(expected.items())
