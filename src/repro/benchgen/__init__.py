"""Synthetic hardware benchmark generator.

The paper evaluates on the HWMCC'15/'17 AIGER benchmarks, which are not
redistributable here; this package generates a deterministic suite of
hardware-style verification problems instead — counters, Gray/Johnson
counters, LFSRs, token rings, arbiters, FIFO controllers, traffic-light
controllers, combination locks and pipelines — each as an
:class:`~repro.aiger.AIG` with a known SAFE/UNSAFE verdict.  The instances
are parametric, so the suite scales from trivial to (for a pure-Python
solver) genuinely hard.
"""

from repro.benchgen.case import BenchmarkCase
from repro.benchgen.counters import (
    counter_overflow,
    modular_counter,
    parity_counter,
    saturating_counter,
)
from repro.benchgen.registers import (
    token_ring,
    johnson_counter,
    lfsr,
    pipeline_tag,
)
from repro.benchgen.arbiter import round_robin_arbiter
from repro.benchgen.fifo import fifo_controller
from repro.benchgen.traffic import traffic_light
from repro.benchgen.lock import combination_lock
from repro.benchgen.datapath import gray_counter, lockstep_counters
from repro.benchgen.soc import monitored_counter, shadowed_ring
from repro.benchgen.suite import (
    bench_suite,
    default_suite,
    extended_suite,
    quick_suite,
    reduction_suite,
    build_suite,
    SuiteSpec,
)

__all__ = [
    "BenchmarkCase",
    "counter_overflow",
    "modular_counter",
    "parity_counter",
    "saturating_counter",
    "token_ring",
    "johnson_counter",
    "lfsr",
    "pipeline_tag",
    "round_robin_arbiter",
    "fifo_controller",
    "traffic_light",
    "combination_lock",
    "gray_counter",
    "lockstep_counters",
    "monitored_counter",
    "shadowed_ring",
    "bench_suite",
    "default_suite",
    "extended_suite",
    "quick_suite",
    "reduction_suite",
    "build_suite",
    "SuiteSpec",
]
