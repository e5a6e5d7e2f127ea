"""Ground-truth validation of the generated benchmark circuits.

Every generator's ``expected`` verdict is checked against an independent
oracle: explicit-state reachability (breadth-first search over the latch
state space with all input combinations) for the small instances, and BMC
for the expected counterexample depths.  The same oracle then checks that
the default reduction pipeline and both AIGER encodings keep every small
instance's verdict and shortest counterexample depth.
"""

import itertools

import pytest

from repro.aiger import parse_aiger, to_aag_string
from repro.aiger.writer import to_aig_bytes
from repro.benchgen import (
    combination_lock,
    counter_overflow,
    fifo_controller,
    johnson_counter,
    lfsr,
    modular_counter,
    parity_counter,
    pipeline_tag,
    round_robin_arbiter,
    saturating_counter,
    token_ring,
    traffic_light,
)
from repro.core import BMC, CheckResult
from repro.reduce import reduce_aig


def exhaustive_bad_reachability(aig, max_states=1 << 14):
    """Explicit-state BFS; returns (bad_reachable, shortest_depth or None)."""
    assert aig.num_latches <= 12, "circuit too large for explicit search"
    assert aig.num_inputs <= 4, "too many inputs for explicit search"

    input_combos = [
        dict(zip(aig.inputs, values))
        for values in itertools.product([False, True], repeat=aig.num_inputs)
    ]
    initial = tuple(bool(latch.init) if latch.init else False for latch in aig.latches)
    frontier = {initial}
    visited = {initial}
    depth = 0
    while frontier:
        next_frontier = set()
        for state in frontier:
            latch_values = {
                latch.lit: value for latch, value in zip(aig.latches, state)
            }
            for inputs in input_combos:
                values = aig._evaluate_combinational(inputs, latch_values)
                bads = aig.bads if aig.bads else aig.outputs
                if values[bads[0]]:
                    return True, depth
                successor = tuple(values[latch.next] for latch in aig.latches)
                if successor not in visited:
                    visited.add(successor)
                    next_frontier.add(successor)
        if len(visited) > max_states:
            raise RuntimeError("state space larger than expected")
        frontier = next_frontier
        depth += 1
    return False, None


SMALL_CASES = [
    counter_overflow(3, safe=True),
    counter_overflow(3, safe=False),
    parity_counter(3, safe=True),
    parity_counter(3, safe=False),
    modular_counter(3, modulus=6, bad_value=7),
    modular_counter(3, modulus=6, bad_value=4),
    saturating_counter(3, limit=5, bad_value=7),
    saturating_counter(3, limit=5, bad_value=3),
    token_ring(4, safe=True),
    token_ring(4, safe=False),
    johnson_counter(4, safe=True),
    johnson_counter(4, safe=False),
    lfsr(4, safe=True),
    lfsr(4, safe=False, unsafe_depth=5),
    pipeline_tag(3, safe=True),
    pipeline_tag(3, safe=False),
    round_robin_arbiter(3, safe=True),
    round_robin_arbiter(3, safe=False),
    fifo_controller(2, safe=True),
    fifo_controller(2, safe=False),
    traffic_light(safe=True),
    traffic_light(safe=False),
    combination_lock([1, 2, 3]),
    combination_lock([1, 2], safe=True),
]


class TestGroundTruthByExplicitSearch:
    @pytest.mark.parametrize("case", SMALL_CASES, ids=lambda c: c.name)
    def test_expected_verdict_matches_reachability(self, case):
        reachable, depth = exhaustive_bad_reachability(case.aig)
        if case.expected == CheckResult.UNSAFE:
            assert reachable, f"{case.name} declared UNSAFE but bad is unreachable"
            if case.expected_depth is not None:
                assert depth == case.expected_depth
        elif case.expected == CheckResult.SAFE:
            assert not reachable, f"{case.name} declared SAFE but bad is reachable"

    @pytest.mark.parametrize("case", SMALL_CASES, ids=lambda c: c.name)
    def test_circuits_are_wellformed(self, case):
        case.aig.validate()
        assert case.aig.bads, "every benchmark must declare a bad property"
        assert case.num_latches == case.aig.num_latches
        assert case.describe().startswith(case.name)


class TestExpectedDepthsAgainstBMC:
    @pytest.mark.parametrize(
        "case",
        [c for c in SMALL_CASES if c.expected == CheckResult.UNSAFE],
        ids=lambda c: c.name,
    )
    def test_bmc_confirms_shortest_depth(self, case):
        depth = case.expected_depth
        assert depth is not None
        if depth > 0:
            assert BMC(case.aig).check(max_depth=depth - 1).result == CheckResult.UNKNOWN
        outcome = BMC(case.aig).check(max_depth=depth)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace.depth == depth


class TestTransformationsAgainstExplicitSearch:
    @pytest.mark.parametrize("case", SMALL_CASES, ids=lambda c: c.name)
    def test_default_reduction_keeps_verdict_and_depth(self, case):
        reduced = reduce_aig(case.aig)
        assert reduced.aig.num_latches <= case.aig.num_latches
        assert exhaustive_bad_reachability(reduced.aig) == exhaustive_bad_reachability(
            case.aig
        )

    @pytest.mark.parametrize("case", SMALL_CASES, ids=lambda c: c.name)
    def test_ascii_round_trip_keeps_verdict_and_depth(self, case):
        parsed = parse_aiger(to_aag_string(case.aig))
        assert exhaustive_bad_reachability(parsed) == exhaustive_bad_reachability(case.aig)

    @pytest.mark.parametrize("case", SMALL_CASES, ids=lambda c: c.name)
    def test_binary_round_trip_keeps_verdict_and_depth(self, case):
        parsed = parse_aiger(to_aig_bytes(case.aig))
        assert exhaustive_bad_reachability(parsed) == exhaustive_bad_reachability(case.aig)


class TestGeneratorParameterValidation:
    def test_counter_rejects_bad_width(self):
        with pytest.raises(ValueError):
            counter_overflow(0)
        with pytest.raises(ValueError):
            parity_counter(1)

    def test_modular_counter_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            modular_counter(3, modulus=0, bad_value=1)
        with pytest.raises(ValueError):
            modular_counter(3, modulus=20, bad_value=1)
        with pytest.raises(ValueError):
            modular_counter(3, modulus=6, bad_value=9)

    def test_saturating_counter_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            saturating_counter(3, limit=0, bad_value=1)
        with pytest.raises(ValueError):
            saturating_counter(3, limit=9, bad_value=1)

    def test_registers_reject_bad_parameters(self):
        with pytest.raises(ValueError):
            token_ring(1)
        with pytest.raises(ValueError):
            johnson_counter(2)
        with pytest.raises(ValueError):
            lfsr(9)
        with pytest.raises(ValueError):
            pipeline_tag(1)

    def test_arbiter_fifo_lock_reject_bad_parameters(self):
        with pytest.raises(ValueError):
            round_robin_arbiter(1)
        with pytest.raises(ValueError):
            fifo_controller(1)
        with pytest.raises(ValueError):
            combination_lock([])
        with pytest.raises(ValueError):
            combination_lock([4], symbol_bits=2)

    def test_case_metadata(self):
        case = johnson_counter(5)
        assert case.family == "johnson"
        assert case.params["width"] == 5
        assert case.expected == CheckResult.SAFE
