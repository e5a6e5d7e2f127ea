"""Zero verdict drift between IC3's frame substrate and its reference.

IC3 runs on the monolithic frame manager; the per-frame manager (one
solver per frame) is kept as its differential reference.  IC3 on either
must return the same SAFE/UNSAFE verdict, and the witnesses of both must
pass the independent validators (``check_certificate`` /
``check_counterexample``) unchanged.
"""

import pytest

from repro.benchgen import modular_counter, token_ring
from repro.benchgen.suite import quick_suite
from repro.core import IC3, IC3Options, CheckResult
from repro.core.invariant import check_certificate, check_counterexample
from tests.conftest import FRAME_SUBSTRATES, use_frame_substrate


def _check(monkeypatch, case, substrate, prediction=False):
    use_frame_substrate(monkeypatch, substrate)
    options = IC3Options()
    if prediction:
        options = options.with_prediction()
    ic3 = IC3(case.aig, options)
    assert type(ic3.frames) is FRAME_SUBSTRATES[substrate]
    return ic3.check(time_limit=30)


class TestVerdictParity:
    @pytest.mark.parametrize("case", quick_suite(), ids=lambda c: c.name)
    def test_quick_suite_verdicts_agree_and_validate(self, case, monkeypatch):
        outcomes = {s: _check(monkeypatch, case, s) for s in FRAME_SUBSTRATES}
        assert (
            outcomes["monolithic"].result == outcomes["per-frame"].result
        ), f"verdict drift on {case.name}"
        if case.expected is not None:
            assert outcomes["monolithic"].result == case.expected
        for outcome in outcomes.values():
            if outcome.result == CheckResult.SAFE:
                assert check_certificate(case.aig, outcome.certificate)
            elif outcome.result == CheckResult.UNSAFE:
                assert check_counterexample(case.aig, outcome.trace)

    @pytest.mark.parametrize(
        "case",
        [token_ring(5), modular_counter(4, modulus=16, bad_value=11)],
        ids=lambda c: c.name,
    )
    def test_parity_with_lemma_prediction(self, case, monkeypatch):
        results = {
            s: _check(monkeypatch, case, s, prediction=True).result
            for s in FRAME_SUBSTRATES
        }
        assert results["monolithic"] == results["per-frame"]
