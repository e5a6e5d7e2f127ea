"""Tests for the evaluation harness: configs, runner, tables, figures, report."""

import pytest

from repro.benchgen import modular_counter, token_ring, combination_lock
from repro.core import CheckResult, IC3Options
from repro.harness import (
    BenchmarkRunner,
    CaseResult,
    EngineConfig,
    cactus_data,
    paper_configurations,
    prediction_pairs,
    ratio_vs_sradv,
    run_paper_evaluation,
    scatter_data,
    success_rate_table,
    summary_table,
)
from repro.harness.configs import config_by_name
from repro.harness.report import build_report


SMALL_CASES = [
    token_ring(3),
    token_ring(3, safe=False),
    modular_counter(3, modulus=6, bad_value=7),
    combination_lock([1, 2]),
]

TWO_CONFIGS = [
    EngineConfig(name="IC3ref", options=IC3Options.profile_ic3_a()),
    EngineConfig(name="IC3ref-pl", options=IC3Options.profile_ic3_a().with_prediction()),
]


@pytest.fixture(scope="module")
def small_run():
    runner = BenchmarkRunner(SMALL_CASES, TWO_CONFIGS, timeout=20.0, validate=True)
    return runner.run()


class TestConfigurations:
    def test_paper_configurations_match_table1_rows(self):
        names = [config.name for config in paper_configurations()]
        assert names == [
            "RIC3",
            "RIC3-pl",
            "IC3ref",
            "IC3ref-pl",
            "IC3ref-CAV23",
            "ABC-PDR",
        ]

    def test_prediction_flags(self):
        for config in paper_configurations():
            assert config.uses_prediction == config.name.endswith("-pl")

    def test_prediction_pairs_reference_existing_configs(self):
        names = {config.name for config in paper_configurations()}
        for base, pl in prediction_pairs():
            assert base in names and pl in names

    def test_config_by_name(self):
        assert config_by_name("ABC-PDR").name == "ABC-PDR"
        with pytest.raises(KeyError):
            config_by_name("nonexistent")

    def test_all_options_valid(self):
        for config in paper_configurations():
            config.options.validate()


class TestRunner:
    def test_all_pairs_executed(self, small_run):
        assert len(small_run.results) == len(SMALL_CASES) * len(TWO_CONFIGS)
        assert small_run.configs() == ["IC3ref", "IC3ref-pl"]
        assert len(small_run.cases()) == len(SMALL_CASES)

    def test_results_are_correct_and_validated(self, small_run):
        assert small_run.incorrect_results() == []
        for result in small_run.results:
            assert result.solved
            assert result.validated is True

    def test_lookup(self, small_run):
        result = small_run.lookup("IC3ref", "ring_n3_safe")
        assert result is not None
        assert result.result == CheckResult.SAFE
        configs = {r.config_name for r in small_run.results if r.case_name == "ring_n3_safe"}
        assert configs == {"IC3ref", "IC3ref-pl"}
        assert small_run.lookup("IC3ref", "missing") is None

    def test_solved_count(self, small_run):
        assert small_run.solved_count("IC3ref") == len(SMALL_CASES)

    def test_penalized_runtime_for_timeouts(self):
        result = CaseResult(
            case_name="x",
            config_name="y",
            result=CheckResult.UNKNOWN,
            runtime=0.3,
            timeout=5.0,
        )
        assert result.timed_out
        assert result.penalized_runtime == 5.0
        assert result.correct  # unknown never counts as wrong

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkRunner(SMALL_CASES, TWO_CONFIGS, timeout=0)

    def test_timeout_produces_unknown(self):
        from repro.benchgen import parity_counter

        runner = BenchmarkRunner(
            [parity_counter(8)], TWO_CONFIGS[:1], timeout=0.2
        )
        result = runner.run().results[0]
        assert result.result == CheckResult.UNKNOWN
        assert result.timed_out


class TestTables:
    def test_table1_counts(self, small_run):
        table = summary_table(small_run)
        [row] = [row for row in table.rows if row[0] == "IC3ref-pl"]
        config, solved, safe, unsafe, _, wrong = row
        assert solved == 4 and safe == 2 and unsafe == 2 and wrong == 0

    def test_table1_text_rendering(self, small_run):
        text = summary_table(small_run).to_text()
        assert "Table 1" in text
        assert "IC3ref-pl" in text
        assert "Solved" in text

    def test_table1_csv(self, small_run):
        csv = summary_table(small_run).to_csv()
        assert csv.splitlines()[0].startswith("Configuration,Solved")
        assert len(csv.splitlines()) == 3

    def test_table2_only_prediction_configs(self, small_run):
        table = success_rate_table(small_run)
        assert [row[0] for row in table.rows] == ["IC3ref-pl"]
        assert table.rows[0][1] is not None  # SR_lp defined

    def test_table2_rates_in_percent_range(self, small_run):
        table = success_rate_table(small_run)
        for row in table.rows:
            for cell in row[1:4]:
                if cell is None:
                    continue
                value = float(cell.rstrip("%"))
                assert 0.0 <= value <= 100.0

    def test_table_row_mismatch_rejected(self):
        from repro.harness.tables import Table

        table = Table(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_table_column_accessor(self, small_run):
        table = summary_table(small_run)
        assert table.column("Configuration") == ["IC3ref", "IC3ref-pl"]


class TestFigures:
    def test_cactus_monotone(self, small_run):
        series = cactus_data(small_run)["IC3ref"]
        points = series.points()
        counts = [count for _, count in points]
        assert counts == sorted(counts)
        assert series.solved_within(1e9) == 4
        assert series.solved_within(0.0) == 0

    def test_scatter_points_cover_all_cases(self, small_run):
        scatter = scatter_data(small_run, "IC3ref", "IC3ref-pl")
        assert len(scatter.points) == len(SMALL_CASES)
        assert scatter.below_diagonal_count + scatter.above_diagonal_count <= len(
            scatter.points
        )
        assert scatter.only_pl_solved() == []
        assert scatter.only_base_solved() == []

    def test_ratio_data_excludes_fast_cases(self, small_run):
        data = ratio_vs_sradv(small_run, "IC3ref", "IC3ref-pl", min_runtime=1e9)
        assert data.points == []
        assert len(data.excluded_cases) == len(SMALL_CASES)

    def test_ratio_data_includes_slow_cases(self, small_run):
        data = ratio_vs_sradv(small_run, "IC3ref", "IC3ref-pl", min_runtime=0.0)
        assert len(data.points) + len(data.excluded_cases) == len(SMALL_CASES)
        for point in data.points:
            assert point.ratio > 0
            assert 0.0 <= point.sr_adv <= 1.0
        cumulative = data.cumulative_improved()
        if cumulative:
            counts = [c for _, c in cumulative]
            assert counts == sorted(counts)

    def test_ratio_buckets(self, small_run):
        data = ratio_vs_sradv(small_run, "IC3ref", "IC3ref-pl", min_runtime=0.0)
        buckets = data.improvement_rate_by_bucket(buckets=2)
        for _, rate in buckets:
            assert 0.0 <= rate <= 1.0


class TestReport:
    def test_run_paper_evaluation_small(self):
        report = run_paper_evaluation(
            cases=SMALL_CASES, configs=TWO_CONFIGS, timeout=20.0
        )
        text = report.to_text()
        assert "Table 1" in text
        assert "Table 2" in text
        assert "Figure 2" in text
        assert "Figure 3" in text
        assert report.num_cases == len(SMALL_CASES)

    def test_build_report_uses_prediction_pairs_present(self, small_run):
        report = build_report(small_run, timeout=20.0)
        assert len(report.scatters) == 1  # only the IC3ref pair is present
        assert report.scatters[0].pl_config == "IC3ref-pl"
