"""Machine-speed calibration for the benchmark's timings.

The benchmark's host is a shared VM whose speed flips between a fast and
a slow state (about 1.6x apart) every few hundred milliseconds, and the
share of slow time drifts over minutes as other tenants load the
physical cores.  CPU time slows with wall time and hypervisor steal stays
near 1 %, so the slowdown is in the processor, not in scheduling.  The
benchmark therefore times a short fixed loop right before and right
after every timed step and scales the step's time by
``REFERENCE_SLICE_S / mean(loop times)``: roughly the time the step takes
on this type of machine when it is quiet.  Five repeated 35-second runs
of deep-cex at one seed spread per-configuration PAR-1 by 10-17 %
(quartile distance over median) with raw medians and by 4-7 % scaled.

The loop is the benchmark's own code — unit propagation over watch
lists, the shape of the SAT kernel's hot loop — so no change to the
program moves it.
"""

from __future__ import annotations

import random
import time

REFERENCE_SLICE_S = 0.009
"""Duration of one loop in the fast state of a 2-core x86 VM at 2.1 GHz."""


def _propagate(seed: int = 7, variables: int = 600, clauses: int = 2000, rounds: int = 3) -> int:
    rng = random.Random(seed)
    watches = {}
    for _ in range(clauses):
        clause = [rng.choice((1, -1)) * rng.randint(1, variables) for _ in range(3)]
        for lit in clause:
            watches.setdefault(-lit, []).append(clause)
    assigned = 0
    for _ in range(rounds):
        value = {}
        for decision in rng.sample(range(1, variables + 1), 200):
            if decision in value:
                continue
            value[decision] = True
            value[-decision] = False
            trail = [decision]
            while trail:
                for clause in watches.get(trail.pop(), ()):
                    free = None
                    for lit in clause:
                        state = value.get(lit)
                        if state:
                            break
                        if state is None:
                            if free is not None:
                                break
                            free = lit
                    else:
                        if free is not None:
                            value[free] = True
                            value[-free] = False
                            trail.append(free)
        assigned += len(value)
    return assigned


def slice_seconds() -> float:
    """Wall time of one calibration loop on this machine, now."""
    start = time.perf_counter()
    _propagate()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that converts a time measured between two slices to reference speed."""
    return 2.0 * REFERENCE_SLICE_S / (before + after)
