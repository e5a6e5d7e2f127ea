"""Tests for the datapath-consistency benchmark families (Gray / lockstep)."""

import pytest

from repro.benchgen import extended_suite, gray_counter, lockstep_counters
from repro.core import IC3, BMC, CheckResult, IC3Options, check_certificate

from tests.test_benchgen_circuits import exhaustive_bad_reachability


DATAPATH_CASES = [
    gray_counter(3, safe=True),
    gray_counter(3, safe=False),
    gray_counter(4, safe=True),
    gray_counter(4, safe=False),
    lockstep_counters(3, safe=True),
    lockstep_counters(3, safe=False),
    lockstep_counters(4, safe=True),
    lockstep_counters(4, safe=False),
]


class TestGroundTruth:
    @pytest.mark.parametrize("case", DATAPATH_CASES, ids=lambda c: c.name)
    def test_expected_verdict_matches_reachability(self, case):
        reachable, depth = exhaustive_bad_reachability(case.aig)
        assert reachable == (case.expected == CheckResult.UNSAFE)
        if reachable:
            assert depth == case.expected_depth

    @pytest.mark.parametrize(
        "case",
        [c for c in DATAPATH_CASES if c.expected == CheckResult.UNSAFE],
        ids=lambda c: c.name,
    )
    def test_bmc_confirms_depth(self, case):
        shallower = BMC(case.aig).check(max_depth=case.expected_depth - 1)
        assert shallower.result == CheckResult.UNKNOWN
        outcome = BMC(case.aig).check(max_depth=case.expected_depth)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace.depth == case.expected_depth

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gray_counter(1)
        with pytest.raises(ValueError):
            lockstep_counters(1)

    def test_metadata(self):
        case = gray_counter(5)
        assert case.family == "gray"
        assert case.params["width"] == 5
        assert lockstep_counters(5).family == "lockstep"


class TestEngineOnDatapathFamilies:
    @pytest.mark.parametrize("case", DATAPATH_CASES, ids=lambda c: c.name)
    def test_ic3_with_prediction_matches_ground_truth(self, case):
        outcome = IC3(case.aig, IC3Options().with_prediction()).check(time_limit=60)
        assert outcome.result == case.expected
        if outcome.result == CheckResult.SAFE:
            assert check_certificate(case.aig, outcome.certificate)

    def test_prediction_fires_on_lockstep_invariant(self):
        case = lockstep_counters(5, safe=True)
        outcome = IC3(case.aig, IC3Options().with_prediction()).check(time_limit=60)
        assert outcome.result == CheckResult.SAFE
        assert outcome.stats.generalizations > 0


class TestExtendedSuite:
    def test_extended_suite_superset_of_default(self):
        from repro.benchgen import default_suite

        default_names = {c.name for c in default_suite()}
        extended_names = {c.name for c in extended_suite()}
        assert default_names < extended_names
        assert any(name.startswith("gray_") for name in extended_names)
        assert any(name.startswith("lockstep_") for name in extended_names)

    def test_extended_suite_names_unique(self):
        cases = extended_suite()
        assert len({c.name for c in cases}) == len(cases)

    def test_extended_suite_has_ground_truth(self):
        assert all(c.expected is not None for c in extended_suite())
