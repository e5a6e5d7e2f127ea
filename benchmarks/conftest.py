"""Shared fixtures for the benchmark harness.

The paper-scale evaluation (the full synthetic suite, six configurations,
a several-second per-case timeout) takes minutes; the benchmarks therefore
run on a *reduced* suite that preserves the mix of families and verdicts.
The session-scoped ``suite_result`` fixture executes that evaluation once
(keeping each pair's fastest of a few repeats); the per-table/figure benchmark modules derive their tables and series from
it and additionally micro-benchmark a representative engine run, so
``pytest benchmarks/ --benchmark-only`` both regenerates every artefact
and reports engine timings.

To reproduce the full-scale numbers recorded in EXPERIMENTS.md run::

    python examples/reproduce_paper.py --timeout 5
"""

from __future__ import annotations

import pytest

from repro.benchgen import (
    combination_lock,
    counter_overflow,
    fifo_controller,
    johnson_counter,
    lfsr,
    modular_counter,
    parity_counter,
    pipeline_tag,
    round_robin_arbiter,
    token_ring,
    traffic_light,
)
from repro.harness import BenchmarkRunner, SuiteResult, paper_configurations
from repro.harness.report import build_report

BENCH_TIMEOUT = 10.0
BENCH_REPEATS = 5


def bench_suite():
    """The reduced benchmark suite (same families as the full suite)."""
    return [
        # SAFE cases across all families, a few sizes each.
        counter_overflow(4, safe=True),
        parity_counter(5, safe=True),
        modular_counter(4, modulus=14, bad_value=15),
        modular_counter(5, modulus=30, bad_value=31),
        token_ring(6, safe=True),
        johnson_counter(6, safe=True),
        johnson_counter(9, safe=True),
        lfsr(5, safe=True),
        pipeline_tag(6, safe=True),
        round_robin_arbiter(4, safe=True),
        fifo_controller(3, safe=True),
        traffic_light(safe=True),
        # The next size of every sized SAFE family: with the compiled SAT
        # kernel most of the cases above finish under Figure 4's 10 ms
        # exclusion threshold, and its correlation check needs at least
        # four engine-dominated cases.
        counter_overflow(5, safe=True),
        parity_counter(6, safe=True),
        modular_counter(6, modulus=62, bad_value=63),
        token_ring(8, safe=True),
        johnson_counter(12, safe=True),
        lfsr(6, safe=True),
        pipeline_tag(8, safe=True),
        round_robin_arbiter(5, safe=True),
        fifo_controller(4, safe=True),
        # UNSAFE cases with growing counterexample depths.
        counter_overflow(3, safe=False),
        parity_counter(4, safe=False),
        token_ring(4, safe=False),
        johnson_counter(5, safe=False),
        lfsr(4, safe=False, unsafe_depth=5),
        combination_lock([1, 2, 3], symbol_bits=2),
        fifo_controller(2, safe=False),
        traffic_light(safe=False),
    ]


@pytest.fixture(scope="session")
def suite_result():
    """One evaluation of all six configurations over the reduced suite.

    Each (configuration, case) pair keeps the fastest of ``BENCH_REPEATS``
    runs.  Most reduced cases finish in tens of milliseconds, where a
    single wall-clock sample is dominated by scheduling noise and would
    flip Figure 4's per-case ratios from run to run.
    """
    runner = BenchmarkRunner(
        bench_suite(), paper_configurations(), timeout=BENCH_TIMEOUT, validate=False
    )
    runs = [runner.run() for _ in range(BENCH_REPEATS)]
    best = SuiteResult(timeout=runner.timeout)
    for samples in zip(*(run.results for run in runs)):
        best.add(min(samples, key=lambda result: result.runtime))
    return best


@pytest.fixture(scope="session")
def paper_report(suite_result):
    """The assembled report (Tables 1-2, Figures 2-4) for the reduced suite."""
    return build_report(suite_result, timeout=BENCH_TIMEOUT)
