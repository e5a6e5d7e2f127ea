"""Tests for the process-pool harness: hard timeouts, jobs parity, indexes, manifest."""

import json
import time

import pytest

from repro.benchgen import modular_counter, token_ring
from repro.core import CheckOutcome, CheckResult, IC3Options
from repro.engines import register_engine
from repro.harness import (
    BenchmarkRunner,
    CaseResult,
    EngineConfig,
    SuiteResult,
    build_manifest,
    map_with_hard_timeout,
    success_rate_table,
    summary_table,
    write_manifest,
)
from repro.harness.manifest import MANIFEST_SCHEMA
from repro.harness.pool import default_grace, resolve_jobs


class _HangingEngine:
    """Simulates an engine stuck inside a single SAT call (ignores budgets)."""

    name = "hanging"

    def __init__(self, aig, options=None, property_index=0, **_):
        pass

    def check(self, time_limit=None):
        time.sleep(120)
        return CheckOutcome(result=CheckResult.UNKNOWN, engine=self.name)


register_engine(
    "hanging-test", lambda aig, **kw: _HangingEngine(aig, **kw), overwrite=True
)

PARITY_CASES = [
    token_ring(3),
    token_ring(3, safe=False),
    modular_counter(3, modulus=6, bad_value=7),
]

PARITY_CONFIGS = [
    EngineConfig(name="IC3ref", options=IC3Options.profile_ic3_a()),
    EngineConfig(name="IC3ref-pl", options=IC3Options.profile_ic3_a().with_prediction()),
]


class TestPool:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_grace_is_clamped(self):
        assert default_grace(0.01) == pytest.approx(0.2)
        assert default_grace(2.0) == pytest.approx(1.0)
        assert default_grace(100.0) == pytest.approx(5.0)

    def test_results_in_task_order(self):
        results = map_with_hard_timeout(
            _square, [3, 1, 2], timeout=10.0, jobs=3
        )
        assert [r.value for r in results] == [9, 1, 4]
        assert all(r.ok for r in results)

    def test_worker_exception_reported_not_raised(self):
        results = map_with_hard_timeout(_explode, ["boom"], timeout=10.0)
        assert not results[0].ok
        assert "RuntimeError" in results[0].error

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            map_with_hard_timeout(_square, [1], timeout=0)


def _square(x):
    return x * x


def _explode(message):
    raise RuntimeError(message)


class TestHardTimeout:
    def test_stuck_worker_killed_within_two_budgets(self):
        budget = 0.5
        runner = BenchmarkRunner(
            [token_ring(3)],
            [EngineConfig(name="hang", engine="hanging-test")],
            timeout=budget,
            jobs=1,
        )
        start = time.perf_counter()
        suite_result = runner.run()
        elapsed = time.perf_counter() - start
        result = suite_result.results[0]
        assert result.result == CheckResult.UNKNOWN
        assert result.timed_out
        assert result.penalized_runtime == budget
        # budget + grace (0.25 s) + fork/kill overhead stays under ~2x budget.
        assert elapsed < 2 * budget + 1.0

    def test_stuck_worker_does_not_delay_parallel_neighbors(self):
        cases = [token_ring(3)]
        configs = [
            EngineConfig(name="hang", engine="hanging-test"),
            EngineConfig(name="IC3ref", options=IC3Options.profile_ic3_a()),
        ]
        suite_result = BenchmarkRunner(cases, configs, timeout=1.0, jobs=2).run()
        assert suite_result.lookup("hang", "ring_n3_safe").timed_out
        assert suite_result.lookup("IC3ref", "ring_n3_safe").result == CheckResult.SAFE


class TestJobsParity:
    @pytest.fixture(scope="class")
    def runs(self):
        one = BenchmarkRunner(PARITY_CASES, PARITY_CONFIGS, timeout=30.0, jobs=1).run()
        four = BenchmarkRunner(PARITY_CASES, PARITY_CONFIGS, timeout=30.0, jobs=4).run()
        return one, four

    def test_same_ordering_and_verdicts(self, runs):
        one, four = runs

        def key(sr):
            return [(r.case_name, r.config_name, r.result) for r in sr.results]

        assert key(one) == key(four)
        assert one.configs() == four.configs()
        assert one.cases() == four.cases()

    def test_table1_identical_up_to_runtimes(self, runs):
        one, four = runs

        def strip(sr):
            table = summary_table(sr)
            return [
                [cell for i, cell in enumerate(row) if table.columns[i] != "Time(PAR1)"]
                for row in table.rows
            ]

        assert strip(one) == strip(four)

    def test_table2_byte_identical(self, runs):
        # Success rates depend only on deterministic engine statistics.
        one, four = runs
        assert success_rate_table(one).to_text() == success_rate_table(four).to_text()

    def test_no_wrong_results_either_way(self, runs):
        one, four = runs
        assert one.incorrect_results() == []
        assert four.incorrect_results() == []


class TestSuiteResultIndex:
    def _result(self, config, case, result=CheckResult.SAFE):
        return CaseResult(
            case_name=case, config_name=config, result=result, runtime=0.1, timeout=5.0
        )

    def test_add_maintains_index(self):
        sr = SuiteResult(timeout=5.0)
        sr.add(self._result("a", "x"))
        sr.add(self._result("a", "y"))
        sr.add(self._result("b", "x"))
        assert sr.lookup("a", "y") is sr.results[1]
        assert sr.lookup("b", "z") is None
        assert sr.configs() == ["a", "b"]
        assert sr.cases() == ["x", "y"]
        assert len(sr.by_config("a")) == 2

    def test_constructor_indexes_existing_results(self):
        sr = SuiteResult(results=[self._result("a", "x")], timeout=5.0)
        assert sr.lookup("a", "x") is sr.results[0]

    def test_direct_mutation_triggers_lazy_rebuild(self):
        sr = SuiteResult(timeout=5.0)
        sr.results.append(self._result("a", "x"))
        assert sr.lookup("a", "x") is sr.results[0]
        sr.results.append(self._result("b", "x"))
        assert sr.lookup("b", "x") is sr.results[1]

    def test_duplicate_pairs_keep_first_for_lookup(self):
        first = self._result("a", "x")
        second = self._result("a", "x", result=CheckResult.UNKNOWN)
        sr = SuiteResult(results=[first, second], timeout=5.0)
        assert sr.lookup("a", "x") is first
        assert len(sr.by_config("a")) == 2


class TestManifest:
    @pytest.fixture(scope="class")
    def suite_result(self):
        return BenchmarkRunner(
            PARITY_CASES, PARITY_CONFIGS[:1], timeout=30.0, jobs=2
        ).run()

    def test_manifest_contents(self, suite_result):
        manifest = build_manifest(
            suite_result, suite="unit", jobs=2, configs=PARITY_CONFIGS[:1]
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["suite"] == "unit"
        assert manifest["jobs"] == 2
        assert manifest["num_cases"] == len(PARITY_CASES)
        assert len(manifest["results"]) == len(PARITY_CASES)
        assert manifest["totals"]["IC3ref"]["solved"] == len(PARITY_CASES)
        assert manifest["configs"]["IC3ref"]["engine"] == "ic3"
        for entry in manifest["results"]:
            assert entry["runtime"] <= entry["penalized_runtime"] + 1e-9

    def test_manifest_round_trips_as_json(self, suite_result, tmp_path):
        manifest = build_manifest(suite_result, suite="unit", jobs=2)
        path = tmp_path / "run.json"
        write_manifest(str(path), manifest)
        assert json.loads(path.read_text()) == json.loads(json.dumps(manifest))


class TestManifestV2:
    """Schema v2: winner, engine statistics and reduction sizes per result."""

    @pytest.fixture(scope="class")
    def soc_suite_result(self):
        from repro.benchgen import monitored_counter

        cases = [monitored_counter(3, noise=4, safe=False)]
        configs = [
            EngineConfig(name="Portfolio", engine="portfolio"),
            EngineConfig(name="IC3", engine="ic3"),
        ]
        return BenchmarkRunner(cases, configs, timeout=30.0, jobs=1).run()

    def test_winner_serialized(self, soc_suite_result):
        manifest = build_manifest(soc_suite_result, suite="unit")
        portfolio = next(
            r for r in manifest["results"] if r["config"] == "Portfolio"
        )
        assert portfolio["winner"] in ("ic3-pl", "bmc", "kind")
        plain = next(r for r in manifest["results"] if r["config"] == "IC3")
        assert plain["winner"] is None

    def test_stats_serialized(self, soc_suite_result):
        manifest = build_manifest(soc_suite_result, suite="unit")
        plain = next(r for r in manifest["results"] if r["config"] == "IC3")
        assert plain["stats"]["sat_calls"] > 0
        json.dumps(manifest)  # everything stays JSON-serializable

    def test_reduction_sizes_serialized(self, soc_suite_result):
        manifest = build_manifest(soc_suite_result, suite="unit", reduce=True)
        assert manifest["reduce"] is True
        for entry in manifest["results"]:
            reduction = entry["reduction"]
            assert reduction["original"]["latches"] > reduction["reduced"]["latches"]
            assert reduction["passes"]

    def test_reduction_none_when_disabled(self):
        suite_result = BenchmarkRunner(
            [token_ring(3)], PARITY_CONFIGS[:1], timeout=30.0, jobs=1, reduce=False
        ).run()
        manifest = build_manifest(suite_result, suite="unit", reduce=False)
        assert manifest["reduce"] is False
        assert all(entry["reduction"] is None for entry in manifest["results"])


class TestWorkerCrashes:
    def test_crash_is_recorded_not_raised(self):
        suite_result = BenchmarkRunner(
            [token_ring(3)],
            [EngineConfig(name="bad", engine="bmc", engine_kwargs={"max_depth": "oops"})],
            timeout=5.0,
            jobs=1,
        ).run()
        result = suite_result.results[0]
        assert result.result == CheckResult.UNKNOWN
        assert result.error is not None
        assert "TypeError" in result.error


class TestEngineKindsInHarness:
    def test_bmc_and_portfolio_configs(self):
        cases = [token_ring(3, safe=False)]
        configs = [
            EngineConfig(name="BMC", engine="bmc", engine_kwargs={"max_depth": 10}),
            EngineConfig(name="Portfolio", engine="portfolio"),
        ]
        suite_result = BenchmarkRunner(cases, configs, timeout=30.0, jobs=2).run()
        bmc = suite_result.lookup("BMC", "ring_n3_unsafe")
        portfolio = suite_result.lookup("Portfolio", "ring_n3_unsafe")
        assert bmc.result == CheckResult.UNSAFE
        assert portfolio.result == CheckResult.UNSAFE
        assert portfolio.engine in ("ic3-pl", "bmc", "kind")
