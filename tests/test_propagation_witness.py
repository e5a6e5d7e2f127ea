"""Failed consecution queries are answered from stored SAT models.

Every SAT answer of ``consecution(L, c)`` at ``L >= 1`` leaves a witness
``(s, i, t)`` in the frame manager.  A later query ``(L', c')`` with
``c' ⊆ t`` and ``c' ⊄ s`` is answered from it while no lemma entered at a
level >= L' blocks ``s``.  The propagation sweep does not even ask a push
that the witness of its last failure still refutes.  The
``checked_reuses`` fixture (see ``conftest.py``) re-solves every such
answer and every skipped push on a fresh solver and requires both the
exact query and the stored transition to be SAT.
"""

import dataclasses

import pytest

from repro.aiger import AIG
from repro.benchgen import counter_overflow, gray_counter, johnson_counter, token_ring
from repro.core import IC3, CheckResult, IC3Options
from repro.core.frames import BadState, FrameManagerBase, _FailedAnswer, _HeldAnswer
from repro.core.generalize import Generalizer
from repro.core.invariant import check_certificate, check_counterexample
from repro.core.options import GeneralizationStrategy
from repro.core.predict import CtpTable
from repro.harness.configs import paper_configurations
from repro.obs.tracer import Tracer, install, uninstall
from tests.conftest import FRAME_SUBSTRATES

CONFIGS = paper_configurations()
CASES = [
    johnson_counter(7, safe=True),
    johnson_counter(6, safe=False),
    gray_counter(4, safe=True),
    gray_counter(4, safe=False),
    token_ring(5, safe=True),
]


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


def _check(aig, options):
    return IC3(aig, options).check(time_limit=60)


def _assert_verdict(aig, outcome, expected):
    assert outcome.result == expected
    if expected == CheckResult.SAFE:
        assert check_certificate(aig, outcome.certificate)
    else:
        assert check_counterexample(aig, outcome.trace)


@pytest.mark.parametrize("frame_substrate", list(FRAME_SUBSTRATES), indirect=True)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
class TestReusedAnswersAreModels:
    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
    def test_benchmark_cases(self, checked_reuses, config, frame_substrate, case):
        options = config.options
        outcome = _check(case.aig, options)
        _assert_verdict(case.aig, outcome, case.expected)
        assert outcome.stats.consecution_reuses == len(checked_reuses) > 0

    def test_invariant_constraints(self, checked_reuses, config, frame_substrate):
        aig = _constrained_johnson(6)
        options = config.options
        _assert_verdict(aig, _check(aig, options), CheckResult.SAFE)
        assert checked_reuses


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
def test_johnson_reuses_witnesses_and_proves(checked_reuses, config):
    case = johnson_counter(8, safe=True)
    outcome = _check(case.aig, config.options)
    assert outcome.result == CheckResult.SAFE
    assert check_certificate(case.aig, outcome.certificate)
    assert outcome.stats.consecution_reuses > 0


@pytest.mark.parametrize(
    "config",
    [
        config
        for config in CONFIGS
        if not config.uses_prediction
        and config.options.generalization != GeneralizationStrategy.CTG
    ],
    ids=lambda config: config.name,
)
def test_drop_attempts_run_on_the_solver(checked_reuses, config, monkeypatch):
    """A failed drop is the cost prediction avoids: never answered from
    the store, so Table 1 compares what the paper compares."""
    original = Generalizer._attempt_drop
    attempts = []

    def attempt(self, candidate, level):
        reuses, calls = len(checked_reuses), self.stats.consecution_calls
        dropped = original(self, candidate, level)
        assert len(checked_reuses) == reuses
        assert self.stats.consecution_calls == calls + 1
        attempts.append(dropped)
        return dropped

    monkeypatch.setattr(Generalizer, "_attempt_drop", attempt)
    outcome = _check(gray_counter(4, safe=True).aig, config.options)
    assert outcome.result == CheckResult.SAFE
    assert None in attempts
    assert outcome.stats.consecution_reuses > 0


def _search(outcome):
    """What the search produced: the verdict, the certificate clauses or
    trace steps, and every counter of ``IC3Stats`` except the timers."""
    stats = {
        name: value
        for name, value in dataclasses.asdict(outcome.stats).items()
        if not name.startswith("time_") and name != "sat_time"
    }
    if outcome.certificate is not None:
        witness = [clause.literals for clause in outcome.certificate.clauses]
    else:
        witness = [(step.state, sorted(step.inputs.items())) for step in outcome.trace.steps]
    return outcome.result, witness, stats


@pytest.mark.parametrize("frame_substrate", list(FRAME_SUBSTRATES), indirect=True)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
def test_skipped_pushes_leave_the_search_unchanged(config, frame_substrate, monkeypatch):
    """Asking every push the sweep skips gives the same run."""
    options = config.options
    aigs = [case.aig for case in CASES] + [_constrained_johnson(6)]
    original = FrameManagerBase.refuted_push
    skips = []

    def counted(self, level, cube):
        usable = original(self, level, cube)
        skips.append(bool(usable))
        return usable

    monkeypatch.setattr(FrameManagerBase, "refuted_push", counted)
    skipping = [_search(_check(aig, options)) for aig in aigs]
    assert any(skips)
    monkeypatch.setattr(FrameManagerBase, "refuted_push", lambda self, level, cube: 0)
    asking = [_search(_check(aig, options)) for aig in aigs]
    assert skipping == asking


@pytest.mark.parametrize("frame_substrate", list(FRAME_SUBSTRATES), indirect=True)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
def test_lazy_answers_leave_the_search_unchanged(config, frame_substrate, monkeypatch):
    """Answers that decode every field when they are made give the same run."""
    options = config.options
    aigs = [case.aig for case in CASES] + [_constrained_johnson(6)]
    lazy = [_search(_check(aig, options)) for aig in aigs]
    decoded = []
    for kind, fields in (
        (_HeldAnswer, ("core_cube",)),
        (_FailedAnswer, ("inputs", "input_values")),
        (BadState, ("inputs", "input_values")),
    ):
        def eager(self, *args, _init=kind.__init__, _fields=fields, _kind=kind):
            _init(self, *args)
            for name in _fields:
                getattr(self, name)
            decoded.append(_kind)

        monkeypatch.setattr(kind, "__init__", eager)
    assert [_search(_check(aig, options)) for aig in aigs] == lazy
    assert {_HeldAnswer, _FailedAnswer, BadState} <= set(decoded)


def test_reused_push_failures_keep_their_ctp_in_the_table(checked_reuses, monkeypatch):
    """Algorithm 2 sees every failure: a reused or skipped push records
    its CTP, a skipped one lazily, and both resolve to the store's answer."""
    options = IC3Options.profile_ic3_a().with_prediction()
    original = IC3._propagate_inner
    sweeps = []
    record_refuted = CtpTable.record_refuted
    lazy = []

    def recorded_lazily(self, lemma_cube, level, usable):
        lazy.append((lemma_cube, level))
        record_refuted(self, lemma_cube, level, usable)

    monkeypatch.setattr(CtpTable, "record_refuted", recorded_lazily)

    def sweep(self):
        first_reuse = len(checked_reuses)
        recorded = self.stats.ctp_recorded
        invariant_level = original(self)
        reused = checked_reuses[first_reuse:]
        for level, cube, result in reused:
            assert self.predictor.table.lookup(cube, level) == result.successor
        sweeps.append((len(reused), self.stats.ctp_recorded - recorded))
        return invariant_level

    monkeypatch.setattr(IC3, "_propagate_inner", sweep)
    outcome = _check(johnson_counter(8, safe=True).aig, options)
    assert outcome.result == CheckResult.SAFE
    assert sum(reused for reused, _ in sweeps) > 0
    assert lazy
    for reused, recorded in sweeps:
        assert recorded >= reused


def test_propagate_span_reports_reused_queries(checked_reuses, monkeypatch):
    """``reused=N`` on ``ic3.propagate`` counts the answers inside the
    sweep; blocking and pushing reuse witnesses too."""
    original = IC3._propagate_inner
    in_sweeps = []

    def sweep(self):
        first_reuse = len(checked_reuses)
        invariant_level = original(self)
        in_sweeps.append(len(checked_reuses) - first_reuse)
        return invariant_level

    monkeypatch.setattr(IC3, "_propagate_inner", sweep)
    tracer = install(Tracer())
    try:
        outcome = _check(counter_overflow(4, safe=False).aig, IC3Options())
    finally:
        uninstall()
    spans = [event for event in tracer.events() if event["name"] == "ic3.propagate"]
    assert [event["args"]["reused"] for event in spans] == in_sweeps
    assert 0 < sum(in_sweeps) < outcome.stats.consecution_reuses
