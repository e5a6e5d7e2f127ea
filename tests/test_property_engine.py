"""Property-based cross-validation of the engines on random circuits.

Random small AIGs are generated from a hypothesis-drawn recipe; IC3 (with
and without prediction), BMC, k-induction and explicit-state reachability
must agree on every one of them, and every certificate / counterexample
must validate.
IC3 runs on its frame substrate and on the per-frame reference, with the
``checked_reuses`` fixture active, so every consecution answered from a
stored witness is re-solved.
This is the strongest end-to-end guard against soundness bugs anywhere in
the stack (encoding, SAT solver, frames, witness store, generalization,
prediction).
"""

import itertools

from hypothesis import given, settings, strategies as st, HealthCheck

from repro.aiger import AIG
from repro.core import (
    IC3,
    BMC,
    CheckResult,
    KInduction,
    IC3Options,
    check_certificate,
    check_counterexample,
)
from tests.conftest import FRAME_SUBSTRATES, use_frame_substrate

ENGINES = (IC3Options(), IC3Options().with_prediction())
SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _ic3_runs(monkeypatch, aig):
    """IC3 and IC3-pl on both substrates: ``((substrate, options), outcome)``."""
    for substrate in FRAME_SUBSTRATES:
        use_frame_substrate(monkeypatch, substrate)
        for options in ENGINES:
            yield (substrate, options), IC3(aig, options).check(time_limit=30)


def build_random_aig(recipe):
    """Deterministically build a small AIG from a drawn recipe."""
    num_latches, num_inputs, gate_recipe, bad_recipe, init_bits = recipe
    aig = AIG()
    inputs = [aig.add_input(f"in{i}") for i in range(num_inputs)]
    latches = [
        aig.add_latch(init=(init_bits >> i) & 1, name=f"l{i}")
        for i in range(num_latches)
    ]
    signals = list(inputs) + list(latches) + [1]  # TRUE is available too

    for kind, a_index, b_index, negate_a, negate_b in gate_recipe:
        a = signals[a_index % len(signals)]
        b = signals[b_index % len(signals)]
        if negate_a:
            a = aig.negate(a)
        if negate_b:
            b = aig.negate(b)
        if kind == 0:
            signals.append(aig.add_and(a, b))
        elif kind == 1:
            signals.append(aig.or_gate(a, b))
        else:
            signals.append(aig.xor_gate(a, b))

    # Next-state functions: the last len(latches) signals drive the latches.
    for index, latch in enumerate(latches):
        source = signals[-(index + 1)] if len(signals) > index else latch
        aig.set_latch_next(latch, source)

    bad_index, negate_bad = bad_recipe
    bad = signals[bad_index % len(signals)]
    if negate_bad:
        bad = aig.negate(bad)
    # Avoid the degenerate constant-true bad (it is legal but uninteresting).
    if bad == 1:
        bad = latches[0]
    aig.add_bad(bad)
    return aig


def explicit_reachability(aig, max_depth=64):
    """Reference oracle: BFS over the full state space."""
    input_combos = [
        dict(zip(aig.inputs, values))
        for values in itertools.product([False, True], repeat=aig.num_inputs)
    ]
    initial = tuple(bool(l.init) if l.init else False for l in aig.latches)
    visited = {initial}
    frontier = {initial}
    depth = 0
    while frontier and depth <= max_depth:
        next_frontier = set()
        for state in frontier:
            latch_values = {l.lit: v for l, v in zip(aig.latches, state)}
            for inputs in input_combos:
                values = aig._evaluate_combinational(inputs, latch_values)
                if values[aig.bads[0]]:
                    return True, depth
                successor = tuple(values[l.next] for l in aig.latches)
                if successor not in visited:
                    visited.add(successor)
                    next_frontier.add(successor)
        frontier = next_frontier
        depth += 1
    return False, None


recipe_strategy = st.tuples(
    st.integers(min_value=1, max_value=3),        # latches
    st.integers(min_value=0, max_value=2),        # inputs
    st.lists(                                     # gate recipe
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=10),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ),
    st.tuples(st.integers(min_value=0, max_value=10), st.booleans()),  # bad
    st.integers(min_value=0, max_value=7),        # init bits
)


class TestEnginesAgreeOnRandomCircuits:
    @settings(max_examples=25, **SETTINGS)
    @given(recipe_strategy)
    def test_ic3_matches_explicit_reachability(self, checked_reuses, monkeypatch, recipe):
        aig = build_random_aig(recipe)
        expected_reachable, expected_depth = explicit_reachability(aig)

        for run, outcome in _ic3_runs(monkeypatch, aig):
            assert outcome.result != CheckResult.UNKNOWN, run
            assert (outcome.result == CheckResult.UNSAFE) == expected_reachable, run

            if outcome.result == CheckResult.SAFE:
                assert check_certificate(aig, outcome.certificate)
            else:
                assert check_counterexample(aig, outcome.trace)
                assert outcome.trace.depth >= expected_depth

    @settings(max_examples=15, **SETTINGS)
    @given(recipe_strategy)
    def test_base_and_prediction_engines_agree(self, checked_reuses, monkeypatch, recipe):
        aig = build_random_aig(recipe)
        verdicts = {outcome.result for _, outcome in _ic3_runs(monkeypatch, aig)}
        assert len(verdicts) == 1

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(recipe_strategy)
    def test_bmc_agrees_on_unsafe_circuits(self, recipe):
        aig = build_random_aig(recipe)
        expected_reachable, expected_depth = explicit_reachability(aig)
        if not expected_reachable:
            return
        outcome = BMC(aig).check(max_depth=expected_depth + 2)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace.depth == expected_depth

    # derandomize: the same circuits are drawn on every run, so a
    # k-induction regression fails reproducibly instead of by chance.
    @settings(max_examples=40, derandomize=True, **SETTINGS)
    @given(recipe_strategy)
    def test_kinduction_never_contradicts_reachability(self, recipe):
        aig = build_random_aig(recipe)
        expected_reachable, expected_depth = explicit_reachability(aig)
        # At most 8 states, so every reachable bad state is within 7 steps
        # and the base case at k = depth + 1 finds it.
        outcome = KInduction(aig).check(max_k=10)
        if expected_reachable:
            assert outcome.result == CheckResult.UNSAFE
            assert check_counterexample(aig, outcome.trace)
            assert outcome.trace.depth == expected_depth
        else:
            assert outcome.result != CheckResult.UNSAFE
