"""Reproduction of "Predicting Lemmas in Generalization of IC3" (DAC 2024).

The package provides, from the bottom up:

* :mod:`repro.logic` — cubes, clauses and the diff set over DIMACS
  literals;
* :mod:`repro.sat` — a CDCL SAT solver with assumptions and cores;
* :mod:`repro.aiger` — AIG construction, simulation and AIGER file I/O
  (the AIGER 1.9 ``J``/``F`` sections are read and written, not checked);
* :mod:`repro.ts` — transition-system encoding and time-frame unrolling;
* :mod:`repro.reduce` — pass-managed circuit reduction (COI, ternary
  constant sweeping, latch merging, each rebuilt through structural
  hashing) with witness lift-back;
* :mod:`repro.core` — IC3/PDR with CTP-based lemma prediction, plus BMC,
  k-induction and certificate/trace validation, one safety property per
  run;
* :mod:`repro.engines` — the engine registry and the process portfolio;
* :mod:`repro.benchgen` — the synthetic hardware benchmark suite;
* :mod:`repro.harness` — the evaluation harness reproducing the paper's
  tables and figures.

Quick start::

    from repro import IC3, IC3Options
    from repro.benchgen import token_ring

    outcome = IC3(token_ring(6).aig, IC3Options().with_prediction()).check()
    print(outcome.summary())
"""

from repro.core.ic3 import IC3
from repro.core.bmc import BMC
from repro.core.kinduction import KInduction
from repro.core.options import IC3Options
from repro.core.result import CheckOutcome, CheckResult

__version__ = "1.1.0"

__all__ = [
    "IC3",
    "BMC",
    "KInduction",
    "IC3Options",
    "CheckOutcome",
    "CheckResult",
    "__version__",
]
