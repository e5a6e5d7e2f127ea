"""Unit tests of the metrics core (``repro.obs.metrics``)."""

import json
import threading

import pytest

from repro.core.result import CheckOutcome, CheckResult
from repro.core.stats import IC3Stats
from repro.obs.metrics import (
    ENGINE_RUNS,
    ENGINE_RUNTIME,
    SAT_CALLS,
    SAT_CONFLICTS,
    SAT_DECISIONS,
    MetricsRegistry,
    default_latency_buckets,
    get_registry,
    record_engine_outcome,
    snapshot_totals,
)


class TestRegistry:
    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()
        # The standard engine families ship pre-declared.
        assert "repro_engine_runs_total" in get_registry().names()

    def test_declare_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", labels=("a",))
        second = registry.counter("x_total", "other help", labels=("a",))
        assert first is second

    def test_redeclare_with_different_kind_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already declared"):
            registry.histogram("x_total")

    def test_redeclare_with_different_labels_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",))
        with pytest.raises(ValueError, match="already declared"):
            registry.counter("x_total", labels=("a", "b"))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("1bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", labels=("bad-label",))

    def test_histogram_redeclare_returns_the_same_metric(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat_seconds", labels=("engine",))
        assert registry.histogram("lat_seconds", labels=("engine",)) is first

    def test_names_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta_total")
        registry.histogram("alpha_seconds")
        registry.counter("mid_total")
        assert registry.names() == ["alpha_seconds", "mid_total", "zeta_total"]


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs_total", labels=("engine",))
        counter.inc(engine="ic3")
        counter.inc(2, engine="bmc")
        counter.labels(engine="ic3").inc()
        assert counter.value(engine="ic3") == 2
        assert counter.value(engine="bmc") == 2

    def test_wrong_label_set_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs_total", labels=("engine",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(motor="ic3")

    def test_negative_increment_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        with pytest.raises(ValueError, match="monotonic"):
            counter.inc(-1)

    def test_increments_survive_their_thread(self):
        """Cells of exited threads stay merged into the total."""
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        worker = threading.Thread(target=lambda: counter.inc(3))
        worker.start()
        worker.join()
        counter.inc()
        assert counter.value() == 4

    def test_untouched_series_reads_zero(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs_total", labels=("engine",))
        counter.inc(engine="ic3")
        assert counter.value(engine="bmc") == 0

    def test_bound_handle_checks_its_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs_total", labels=("engine",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.labels(engine="ic3", result="safe")

    def test_concurrent_increments_are_all_counted(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", labels=("pool",))

        def work():
            handle = counter.labels(pool="harness")
            for _ in range(500):
                handle.inc()
                counter.inc(pool="portfolio")

        workers = [threading.Thread(target=work) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value(pool="harness") == 4000
        assert counter.value(pool="portfolio") == 4000


class TestHistogram:
    def test_observations_land_in_log_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        (state,) = histogram.collect().values()
        buckets, total, count = state
        assert buckets == [1, 1, 1, 1]  # one per bucket incl. +Inf
        assert count == 4
        assert total == pytest.approx(55.55)

    def test_mean(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds")
        assert histogram.mean() is None
        histogram.observe(2.0)
        histogram.observe(4.0)
        assert histogram.mean() == pytest.approx(3.0)

    def test_default_buckets_are_log_spaced(self):
        bounds = default_latency_buckets()
        assert len(bounds) == 17
        assert bounds[0] == pytest.approx(0.001)
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi == pytest.approx(lo * 2)

    def test_unsorted_bounds_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad_seconds", buckets=(1.0, 0.5))

    def test_duplicate_bounds_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad_seconds", buckets=(0.5, 1.0, 1.0))

    def test_value_on_a_bound_lands_in_that_bucket(self):
        # Buckets are cumulative upper bounds: ``le`` includes the bound.
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        histogram.observe(1.0)
        histogram.observe(10.0)
        ((buckets, _, _),) = histogram.collect().values()
        assert buckets == [0, 1, 1, 0]

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", labels=("engine",))
        histogram.observe(1.0, engine="ic3")
        histogram.observe(3.0, engine="ic3")
        histogram.observe(10.0, engine="bmc")
        assert histogram.mean(engine="ic3") == pytest.approx(2.0)
        assert histogram.mean(engine="bmc") == pytest.approx(10.0)
        assert histogram.mean(engine="kind") is None


class TestSnapshot:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "runs", labels=("engine",)).inc(3, engine="ic3")
        registry.histogram("lat_seconds", "latency", buckets=(1.0,)).observe(0.5)
        return registry

    def test_snapshot_is_plain_json_shape(self):
        snapshot = self._populated().snapshot()
        assert set(snapshot) == {"counters", "histograms"}
        (series,) = snapshot["counters"]["runs_total"]["values"]
        assert series == {"labels": {"engine": "ic3"}, "value": 3}
        (series,) = snapshot["histograms"]["lat_seconds"]["values"]
        assert series["buckets"] == [1, 0] and series["count"] == 1

    def test_snapshot_totals_condenses_families(self):
        totals = snapshot_totals(self._populated().snapshot())
        assert totals["runs_total"] == 3
        assert totals["lat_seconds"] == {"sum": 0.5, "count": 1}


    def test_untouched_metrics_are_listed_without_values(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "runs")
        registry.histogram("lat_seconds", "latency", buckets=(1.0, 2.0))
        snapshot = registry.snapshot()
        assert snapshot["counters"]["runs_total"]["values"] == []
        assert snapshot["histograms"]["lat_seconds"]["bounds"] == [1.0, 2.0]
        assert snapshot_totals(snapshot) == {
            "lat_seconds": {"sum": 0, "count": 0},
            "runs_total": 0,
        }

    def test_snapshot_survives_json(self):
        snapshot = self._populated().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_totals_fold_label_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs_total", labels=("engine",))
        counter.inc(2, engine="ic3")
        counter.inc(5, engine="bmc")
        histogram = registry.histogram("lat_seconds", labels=("engine",))
        histogram.observe(0.25, engine="ic3")
        histogram.observe(0.5, engine="bmc")
        totals = snapshot_totals(registry.snapshot())
        assert totals["runs_total"] == 7
        assert totals["lat_seconds"] == {"sum": 0.75, "count": 2}


class TestRecordEngineOutcome:
    """``record_engine_outcome`` feeds the process-wide registry, so each
    case reads deltas under an engine name no other test uses."""

    def test_run_and_runtime_are_recorded_per_engine(self):
        engine = "metrics-test-runtime"
        outcome = CheckOutcome(result=CheckResult.SAFE, runtime=0.5, engine=engine)
        record_engine_outcome(outcome)
        record_engine_outcome(outcome)
        assert ENGINE_RUNS.value(engine=engine, result="safe") == 2
        assert ENGINE_RUNS.value(engine=engine, result="unsafe") == 0
        assert ENGINE_RUNTIME.mean(engine=engine) == pytest.approx(0.5)

    def test_sat_counters_grow_by_the_run_statistics(self):
        stats = IC3Stats(sat_calls=7, solver_conflicts=3, solver_decisions=0)
        before = (SAT_CALLS.value(), SAT_CONFLICTS.value(), SAT_DECISIONS.value())
        record_engine_outcome(
            CheckOutcome(result=CheckResult.UNSAFE, engine="metrics-test-sat", stats=stats)
        )
        after = (SAT_CALLS.value(), SAT_CONFLICTS.value(), SAT_DECISIONS.value())
        assert [b - a for a, b in zip(before, after)] == [7, 3, 0]

    def test_outcome_without_stats_records_only_the_run(self):
        engine = "metrics-test-nostats"
        outcome = CheckOutcome(result=CheckResult.UNKNOWN, engine=engine)
        outcome.stats = None
        before = SAT_CALLS.value()
        record_engine_outcome(outcome)
        assert ENGINE_RUNS.value(engine=engine, result="unknown") == 1
        assert SAT_CALLS.value() == before
