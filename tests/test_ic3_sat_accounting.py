"""Each SAT call of an IC3 run is counted exactly once, in IC3Stats.

``IC3Stats`` is the only place that counts and times the engine's SAT
calls (the manifest serialises it per result), so its ``sat_calls`` must
match the solves the kernel actually ran, and the search totals folded
in by ``finalize_stats`` must match the solvers the frame manager holds.
"""

import pytest

from repro.benchgen.suite import quick_suite
from repro.core.ic3 import IC3
from repro.core.result import CheckResult
from repro.harness.configs import paper_configurations
from repro.sat.arena import ArenaSolver
from tests.conftest import FRAME_SUBSTRATES

CASES = {case.name: case for case in quick_suite()}
CASE_NAMES = ["ring_n4_safe", "pipe_s3_safe", "traffic_unsafe", "lfsr_w3_unsafe_d4"]
CONFIGS = paper_configurations()


@pytest.fixture
def solve_calls(monkeypatch):
    """Every ``ArenaSolver.solve`` call, as the solver that ran it."""
    calls = []
    original = ArenaSolver.solve

    def counting_solve(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ArenaSolver, "solve", counting_solve)
    return calls


@pytest.mark.parametrize("frame_substrate", list(FRAME_SUBSTRATES), indirect=True)
@pytest.mark.parametrize("config", CONFIGS, ids=[config.name for config in CONFIGS])
@pytest.mark.parametrize("case_name", CASE_NAMES)
def test_sat_calls_match_kernel_solves(case_name, config, frame_substrate, solve_calls):
    case = CASES[case_name]
    ic3 = IC3(case.aig, options=config.options)
    outcome = ic3.check(time_limit=60.0)
    assert outcome.result == case.expected

    stats = outcome.stats
    assert stats.sat_calls == len(solve_calls) > 0
    solvers = ic3.frames.solvers()
    # No solver outside the manager's answers a query.
    assert {id(solver) for solver in solve_calls} <= {id(s) for s in solvers}
    assert stats.solver_conflicts == sum(s.stats.conflicts for s in solvers)
    assert stats.solver_decisions == sum(s.stats.decisions for s in solvers)
    assert stats.solver_propagations == sum(s.stats.propagations for s in solvers)
    if outcome.result == CheckResult.SAFE:
        assert stats.solver_propagations > 0
