"""Every engine runs the arena kernel; the witness checker runs ``Solver``.

The engines and the independent witness checker must never share a SAT
kernel: a kernel bug that made an engine accept a bogus lemma would then
also make the checker accept the certificate built from it.  These tests
count the ``solve`` calls each kernel receives while the engines run and
while the checker re-checks their witnesses.
"""

from collections import Counter

import pytest

from repro.benchgen import modular_counter, token_ring
from repro.core.invariant import check_certificate
from repro.core.result import CheckResult
from repro.engines import create_engine
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


def test_checker_runs_only_the_reference_kernel(solve_calls):
    case = token_ring(3)
    outcome = create_engine("ic3", case.aig).check(time_limit=60)
    assert outcome.result == CheckResult.SAFE
    solve_calls.clear()
    assert check_certificate(case.aig, outcome.certificate)
    assert solve_calls["Solver"] > 0
    assert solve_calls["ArenaSolver"] == 0
