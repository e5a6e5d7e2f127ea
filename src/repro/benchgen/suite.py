"""Assembly of benchmark suites.

``default_suite()`` plays the role of the HWMCC'15/'17 set in the paper's
evaluation: a fixed, deterministic list of cases spanning all generator
families, several sizes, and a mix of SAFE and UNSAFE verdicts.  The sizes
are calibrated for the pure-Python SAT solver (seconds, not the paper's
1000 s budget); ``quick_suite()`` is a small subset for smoke tests and CI,
and ``build_suite`` lets callers scale the instance sizes up or down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.benchgen.arbiter import round_robin_arbiter
from repro.benchgen.case import BenchmarkCase
from repro.benchgen.counters import (
    counter_overflow,
    modular_counter,
    parity_counter,
    saturating_counter,
)
from repro.benchgen.fifo import fifo_controller
from repro.benchgen.lock import combination_lock
from repro.benchgen.registers import johnson_counter, lfsr, pipeline_tag, token_ring
from repro.benchgen.soc import monitored_counter, shadowed_ring
from repro.benchgen.traffic import traffic_light


@dataclass
class SuiteSpec:
    """Size knobs for :func:`build_suite`."""

    counter_widths: Sequence[int] = (3, 4, 5, 6, 7)
    modular_widths: Sequence[int] = (3, 4, 5, 7)
    ring_sizes: Sequence[int] = (3, 4, 5, 6, 8, 12)
    johnson_widths: Sequence[int] = (3, 4, 5, 6, 12, 16)
    lfsr_widths: Sequence[int] = (3, 4, 5, 6, 8)
    pipeline_stages: Sequence[int] = (3, 4, 6, 8, 10)
    arbiter_sizes: Sequence[int] = (2, 3, 4, 5, 8)
    fifo_widths: Sequence[int] = (2, 3, 4, 6)
    lock_lengths: Sequence[int] = (2, 3, 4)
    soc_counter_widths: Sequence[int] = (3, 4)
    soc_ring_sizes: Sequence[int] = (3, 4)
    include_unsafe: bool = True


def build_suite(spec: Optional[SuiteSpec] = None) -> List[BenchmarkCase]:
    """Build a benchmark suite according to ``spec`` (default sizes otherwise)."""
    spec = spec if spec is not None else SuiteSpec()
    cases: List[BenchmarkCase] = []

    for width in spec.counter_widths:
        cases.append(counter_overflow(width, safe=True))
        cases.append(parity_counter(width, safe=True))
    for width in spec.modular_widths:
        modulus = (1 << width) - 2
        cases.append(modular_counter(width, modulus=modulus, bad_value=(1 << width) - 1))
        cases.append(saturating_counter(width, limit=(1 << width) - 2, bad_value=(1 << width) - 1))
    for size in spec.ring_sizes:
        cases.append(token_ring(size, safe=True))
    for width in spec.johnson_widths:
        cases.append(johnson_counter(width, safe=True))
    for width in spec.lfsr_widths:
        cases.append(lfsr(width, safe=True))
    for stages in spec.pipeline_stages:
        cases.append(pipeline_tag(stages, safe=True))
    for size in spec.arbiter_sizes:
        cases.append(round_robin_arbiter(size, safe=True))
    for width in spec.fifo_widths:
        cases.append(fifo_controller(width, safe=True))
    for width in spec.soc_counter_widths:
        cases.append(monitored_counter(width, noise=2 * width, safe=True))
    for size in spec.soc_ring_sizes:
        cases.append(shadowed_ring(size, noise=size + 2, safe=True))
    cases.append(traffic_light(safe=True))

    if spec.include_unsafe:
        for width in spec.counter_widths[:2]:
            cases.append(counter_overflow(width, safe=False))
            cases.append(parity_counter(width, safe=False))
        for width in spec.modular_widths[:2]:
            cases.append(modular_counter(width, modulus=(1 << width) - 2, bad_value=3))
        for size in spec.ring_sizes[:3]:
            cases.append(token_ring(size, safe=False))
        for width in spec.johnson_widths[:2]:
            cases.append(johnson_counter(width, safe=False))
        for width in spec.lfsr_widths[:2]:
            cases.append(lfsr(width, safe=False, unsafe_depth=4))
        for stages in spec.pipeline_stages[:2]:
            cases.append(pipeline_tag(stages, safe=False))
        for size in spec.arbiter_sizes[:2]:
            cases.append(round_robin_arbiter(size, safe=False))
        for width in spec.fifo_widths[:2]:
            cases.append(fifo_controller(width, safe=False))
        for width in spec.soc_counter_widths[:1]:
            cases.append(monitored_counter(width, noise=2 * width, safe=False))
        for size in spec.soc_ring_sizes[:1]:
            cases.append(shadowed_ring(size, noise=size + 2, safe=False))
        for length in spec.lock_lengths:
            cases.append(combination_lock(code=[1, 2, 3, 2][:length], symbol_bits=2))
        cases.append(traffic_light(safe=False))

    _check_unique_names(cases)
    return cases


def default_suite() -> List[BenchmarkCase]:
    """The suite used by the paper-reproduction harness (Table 1 etc.)."""
    return build_suite(SuiteSpec())


def extended_suite() -> List[BenchmarkCase]:
    """The default suite plus the datapath-consistency families.

    The extended suite is not part of the documented EXPERIMENTS.md run (so
    those numbers stay reproducible), but it exercises longer, multi-latch
    lemmas and is useful for stress-testing the prediction mechanism.
    """
    from repro.benchgen.datapath import gray_counter, lockstep_counters

    cases = default_suite()
    for width in (3, 4, 5, 6):
        cases.append(gray_counter(width, safe=True))
        cases.append(lockstep_counters(width, safe=True))
    for width in (3, 4):
        cases.append(gray_counter(width, safe=False))
        cases.append(lockstep_counters(width, safe=False))
    _check_unique_names(cases)
    return cases


def reduction_suite() -> List[BenchmarkCase]:
    """Large SoC-style cases that are only tractable with reduction.

    Each instance buries a small property cone inside out-of-cone noise,
    constant configuration straps and lockstep register replicas; the
    default :mod:`repro.reduce` pipeline shrinks them by one to two
    orders of magnitude.  Without reduction, the pure-Python IC3 blows
    the harness's usual per-case budget on every one of them — which is
    the point: run ``repro-check evaluate`` with and without
    ``--no-reduce`` to see the difference.
    """
    cases = [
        monitored_counter(8, noise=24, copies=6, safe=True),
        monitored_counter(8, noise=32, copies=8, safe=True),
        monitored_counter(6, noise=48, copies=6, safe=True),
        monitored_counter(4, noise=32, copies=8, safe=False),
        shadowed_ring(16, noise=24, safe=True),
        shadowed_ring(20, noise=32, safe=True),
        shadowed_ring(12, noise=40, safe=False),
    ]
    _check_unique_names(cases)
    return cases


def quick_suite() -> List[BenchmarkCase]:
    """A small, fast subset used by smoke tests and examples."""
    spec = SuiteSpec(
        counter_widths=(3,),
        modular_widths=(3,),
        ring_sizes=(3, 4),
        johnson_widths=(3,),
        lfsr_widths=(3,),
        pipeline_stages=(3,),
        arbiter_sizes=(2,),
        fifo_widths=(2,),
        lock_lengths=(2,),
        soc_counter_widths=(),
        soc_ring_sizes=(),
        include_unsafe=True,
    )
    return build_suite(spec)


def bench_suite() -> List[BenchmarkCase]:
    """The canonical fixed suite behind the committed ``BENCH_*.json``.

    Calibrated for the backend benchmarks: it is a strict superset of
    :func:`quick_suite` (so the CI quick gate can replay a committed
    snapshot case-by-case) plus the medium SAFE instances — parity_w5/w6
    and johnson_w12/w16 — whose SAT time is large enough for a kernel
    speedup to be measurable above timer noise.  The composition is part
    of the snapshot contract: changing it orphans every earlier
    ``BENCH_*.json``, so grow it only alongside a fresh snapshot.
    """
    spec = SuiteSpec(
        counter_widths=(3, 5, 6),
        modular_widths=(3,),
        ring_sizes=(3, 4, 8),
        johnson_widths=(3, 12, 16),
        lfsr_widths=(3, 6),
        pipeline_stages=(3, 6),
        arbiter_sizes=(2, 4),
        fifo_widths=(2, 3),
        lock_lengths=(2, 3),
        soc_counter_widths=(),
        soc_ring_sizes=(),
        include_unsafe=True,
    )
    return build_suite(spec)


def _check_unique_names(cases: List[BenchmarkCase]) -> None:
    seen: Dict[str, int] = {}
    for case in cases:
        if case.name in seen:
            raise ValueError(f"duplicate benchmark name: {case.name}")
        seen[case.name] = 1
