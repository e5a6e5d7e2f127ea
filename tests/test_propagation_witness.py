"""Propagation skips pushes that a stored CTP witness proves will fail.

A failed push of the lemma ``¬c`` from level L leaves a witness: the
model's pre-state ``s`` (a full latch assignment in ``F_L ∧ ¬c``) and its
successor ``t ⊨ c``.  While no lemma inserted at a level >= L blocks
``s``, the push must fail again and IC3 skips its SAT query.  The
``checked_skips`` fixture still runs the query of every skipped push and
requires it to come back SAT.
"""

import dataclasses

import pytest

from repro.aiger import AIG
from repro.benchgen import gray_counter, johnson_counter, token_ring
from repro.core import IC3, CheckResult, IC3Options
from repro.core.invariant import check_certificate, check_counterexample
from repro.harness.configs import paper_configurations
from repro.obs.tracer import Tracer, install, uninstall

BACKENDS = ("monolithic", "per-frame")
CONFIGS = paper_configurations()
CASES = [
    johnson_counter(7, safe=True),
    johnson_counter(6, safe=False),
    gray_counter(4, safe=True),
    gray_counter(4, safe=False),
    token_ring(5, safe=True),
]


@pytest.fixture
def checked_skips(monkeypatch):
    """Run the SAT query of every skipped push and require it to fail.

    Returns the list of skipped pushes as ``(cube, level, successor)``.
    """
    skipped = []
    original = IC3._known_push_failure

    def checked(self, cube, level, witnesses):
        failure = original(self, cube, level, witnesses)
        if failure is not None:
            result = self.frames.consecution(level, cube)
            assert not result.holds, f"skipped a push of {cube} at {level} that holds"
            skipped.append((cube, level, failure[1]))
        return failure

    monkeypatch.setattr(IC3, "_known_push_failure", checked)
    return skipped


def _constrained_johnson(width: int) -> AIG:
    """A Johnson counter whose feedback bit is an input pinned by a constraint."""
    aig = AIG(comment=f"constrained johnson width={width}")
    feedback = aig.add_input("feedback")
    bits = [aig.add_latch(init=0, name=f"j{i}") for i in range(width)]
    aig.set_latch_next(bits[0], feedback)
    for index in range(1, width):
        aig.set_latch_next(bits[index], bits[index - 1])
    aig.add_constraint(aig.xor_gate(feedback, bits[-1]))
    aig.add_bad(aig.equal_const(bits, sum(1 << i for i in range(0, width, 2))))
    return aig


def _check(aig, options, seed_clauses=None):
    return IC3(aig, options, seed_clauses=seed_clauses).check(time_limit=60)


def _assert_verdict(aig, outcome, expected):
    assert outcome.result == expected
    if expected == CheckResult.SAFE:
        assert check_certificate(aig, outcome.certificate)
    else:
        assert check_counterexample(aig, outcome.trace)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
class TestSkippedPushesFail:
    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
    def test_benchmark_cases(self, checked_skips, config, backend, case):
        options = dataclasses.replace(config.options, frame_backend=backend)
        outcome = _check(case.aig, options)
        _assert_verdict(case.aig, outcome, case.expected)
        assert outcome.stats.pushes_skipped == len(checked_skips)

    def test_invariant_constraints(self, checked_skips, config, backend):
        aig = _constrained_johnson(6)
        options = dataclasses.replace(config.options, frame_backend=backend)
        _assert_verdict(aig, _check(aig, options), CheckResult.SAFE)

    def test_seed_clauses(self, checked_skips, config, backend):
        case = johnson_counter(7, safe=True)
        options = dataclasses.replace(config.options, frame_backend=backend)
        first = IC3(case.aig, options)
        proof = first.check(time_limit=60)
        index_of = {var: index + 1 for index, var in enumerate(first.ts.latch_vars)}
        # Half of a proof: the seeded run still has lemmas to find and push.
        seeds = [
            [index_of[lit] if lit > 0 else -index_of[-lit] for lit in clause]
            for clause in proof.certificate.clauses[::2]
        ]
        outcome = _check(case.aig, options, seed_clauses=seeds)
        assert outcome.stats.shared_lemmas_applied > 0
        _assert_verdict(case.aig, outcome, CheckResult.SAFE)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
def test_johnson_skips_pushes_and_proves(checked_skips, config):
    case = johnson_counter(8, safe=True)
    outcome = _check(case.aig, config.options)
    assert outcome.result == CheckResult.SAFE
    assert check_certificate(case.aig, outcome.certificate)
    assert outcome.stats.pushes_skipped > 0


def test_skipped_pushes_keep_their_ctp_in_the_table(checked_skips, monkeypatch):
    """Algorithm 2 sees every failure: a skip re-records its CTP."""
    options = IC3Options.profile_ic3_a().with_prediction()
    assert options.clear_ctp_before_propagation
    original = IC3._propagate_inner
    sweeps = []

    def sweep(self):
        first_skip = len(checked_skips)
        recorded = self.stats.ctp_recorded
        invariant_level = original(self)
        skipped = checked_skips[first_skip:]
        for cube, level, successor in skipped:
            assert self.predictor.table.lookup(cube, level) == successor
        sweeps.append((len(skipped), self.stats.ctp_recorded - recorded))
        return invariant_level

    monkeypatch.setattr(IC3, "_propagate_inner", sweep)
    outcome = _check(johnson_counter(8, safe=True).aig, options)
    assert outcome.result == CheckResult.SAFE
    assert sum(skipped for skipped, _ in sweeps) == outcome.stats.pushes_skipped > 0
    for skipped, recorded in sweeps:
        assert recorded >= skipped


def test_propagate_span_reports_skipped_pushes():
    tracer = install(Tracer())
    try:
        outcome = _check(johnson_counter(8, safe=True).aig, IC3Options())
    finally:
        uninstall()
    spans = [event for event in tracer.events() if event["name"] == "ic3.propagate"]
    assert spans
    total = sum(event["args"]["skipped"] for event in spans)
    assert total == outcome.stats.pushes_skipped > 0
