"""Every engine runs the arena kernel; the witness checker runs ``Solver``.

The engines and the independent witness checker must never share a SAT
kernel: a kernel bug that made an engine accept a bogus lemma would then
also make the checker accept the certificate built from it.  These tests
count the ``solve`` calls each kernel receives while the engines run and
while the checker re-checks their witnesses.
"""

from collections import Counter

import pytest

from repro.aiger.aig import AIG, FALSE_LIT
from repro.benchgen import modular_counter, token_ring
from repro.core.invariant import check_certificate
from repro.core.result import CheckResult
from repro.engines import create_engine
from repro.props import PropertyScheduler
from repro.props import scheduler as scheduler_module
from repro.sat.arena import ArenaSolver
from repro.sat.solver import Solver


@pytest.fixture
def solve_calls(monkeypatch):
    """Per-kernel counts of ``solve``/``solve_limited`` calls."""
    calls = Counter()
    for kernel in (Solver, ArenaSolver):
        for name in ("solve", "solve_limited"):
            original = getattr(kernel, name)

            def counted(self, *args, _original=original, _kernel=kernel, **kwargs):
                calls[_kernel.__name__] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(kernel, name, counted)
    return calls


def _two_property_ring(size=4):
    """A one-hot ring with two SAFE bads (exercises the shared unrolling)."""
    aig = AIG()
    stages = [aig.add_latch(init=1 if i == 0 else 0) for i in range(size)]
    for index, stage in enumerate(stages):
        aig.set_latch_next(stage, stages[(index - 1) % size])
    collision = FALSE_LIT
    for i in range(size):
        for j in range(i + 1, size):
            collision = aig.or_gate(collision, aig.add_and(stages[i], stages[j]))
    aig.add_bad(collision)
    aig.add_bad(aig.add_and(stages[0], stages[2]))
    aig.validate()
    return aig


@pytest.mark.parametrize(
    "engine, case, expected",
    [
        ("ic3", token_ring(3), CheckResult.SAFE),
        ("ic3-pl", token_ring(3), CheckResult.SAFE),
        ("bmc", modular_counter(3, modulus=8, bad_value=3), CheckResult.UNSAFE),
        ("kind", token_ring(3), CheckResult.SAFE),
        ("kind", modular_counter(3, modulus=8, bad_value=3), CheckResult.UNSAFE),
    ],
    ids=["ic3", "ic3-pl", "bmc", "kind-safe", "kind-unsafe"],
)
def test_engines_run_only_the_arena_kernel(solve_calls, engine, case, expected):
    outcome = create_engine(engine, case.aig).check(time_limit=60)
    assert outcome.result == expected
    assert solve_calls["ArenaSolver"] > 0
    assert solve_calls["Solver"] == 0


def test_scheduler_runs_only_the_arena_kernel(solve_calls, monkeypatch):
    # The scheduler re-checks every SAFE certificate before pooling its
    # clauses; those checker queries are the only ones ``Solver`` may see.
    checker_calls = Counter()

    def counted_check(*args, **kwargs):
        before = solve_calls["Solver"]
        try:
            return check_certificate(*args, **kwargs)
        finally:
            checker_calls["Solver"] += solve_calls["Solver"] - before

    monkeypatch.setattr(scheduler_module, "check_certificate", counted_check)
    result = PropertyScheduler(_two_property_ring()).run(time_limit=60)
    assert result.shared_bmc_queries > 0
    assert result.aggregate == CheckResult.SAFE
    assert solve_calls["ArenaSolver"] > 0
    assert solve_calls["Solver"] == checker_calls["Solver"]


def test_checker_runs_only_the_reference_kernel(solve_calls):
    case = token_ring(3)
    outcome = create_engine("ic3", case.aig).check(time_limit=60)
    assert outcome.result == CheckResult.SAFE
    solve_calls.clear()
    assert check_certificate(case.aig, outcome.certificate)
    assert solve_calls["Solver"] > 0
    assert solve_calls["ArenaSolver"] == 0
