"""Invariant constraints in safety checking.

A counterexample must respect every AIGER constraint on every step,
including the last one, and a bad state that is reachable only by
breaking a constraint must not produce an UNSAFE verdict.
"""

import pytest

from repro.aiger.aig import AIG
from repro.core.result import CheckResult
from repro.engines import create_engine
from repro.harness.runner import validate_witness


def _stuck_counter(bad):
    """A 2-bit counter with an enable input; a constraint freezes it at 2.

    ``bad`` picks the property: ``"two"`` (reachable), ``"two-enabled"``
    (the counter at 2 with enable high, which the constraint forbids) or
    ``"three"`` (beyond the frozen value).
    """
    aig = AIG(comment=f"stuck counter, bad={bad}")
    enable = aig.add_input("enable")
    lo, hi = (aig.add_latch(init=0) for _ in range(2))
    aig.set_latch_next(lo, aig.xor_gate(lo, enable))
    aig.set_latch_next(hi, aig.xor_gate(hi, aig.add_and(lo, enable)))
    two = aig.add_and(aig.negate(lo), hi)
    aig.add_constraint(aig.negate(aig.add_and(two, enable)))
    aig.add_bad(
        {
            "two": two,
            "two-enabled": aig.add_and(two, enable),
            "three": aig.add_and(lo, hi),
        }[bad]
    )
    aig.validate()
    return aig


REDUCE = pytest.mark.parametrize("reduce", [True, False], ids=["reduced", "original"])


@REDUCE
@pytest.mark.parametrize("engine", ["bmc", "ic3", "ic3-pl", "kind"])
def test_counterexample_respects_constraints_on_every_step(engine, reduce):
    aig = _stuck_counter("two")
    outcome = create_engine(engine, aig, reduce=reduce).check(time_limit=60)
    assert outcome.result == CheckResult.UNSAFE
    assert validate_witness(aig, outcome) is True
    inputs = outcome.trace.input_sequence()
    assert len(inputs) == 3
    # Two enables reach 2; the final step must keep enable low.
    assert [step.get(aig.inputs[0], False) for step in inputs] == [True, True, False]


@REDUCE
@pytest.mark.parametrize("engine", ["ic3", "ic3-pl", "kind"])
def test_bad_reachable_only_by_breaking_a_constraint_is_safe(engine, reduce):
    aig = _stuck_counter("two-enabled")
    outcome = create_engine(engine, aig, reduce=reduce).check(time_limit=60)
    assert outcome.result == CheckResult.SAFE
    assert validate_witness(aig, outcome) is True


@REDUCE
def test_bmc_does_not_fabricate_a_counterexample(reduce):
    aig = _stuck_counter("two-enabled")
    outcome = create_engine("bmc", aig, reduce=reduce, max_depth=6).check(time_limit=60)
    assert outcome.result == CheckResult.UNKNOWN
    assert outcome.trace is None


@REDUCE
@pytest.mark.parametrize("engine", ["ic3", "ic3-pl"])
def test_frozen_counter_never_reaches_three(engine, reduce):
    aig = _stuck_counter("three")
    outcome = create_engine(engine, aig, reduce=reduce).check(time_limit=60)
    assert outcome.result == CheckResult.SAFE
    assert validate_witness(aig, outcome) is True
