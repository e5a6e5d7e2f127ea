"""Bounded model checking.

BMC unrolls the transition relation ``k`` times and asks a single SAT
query per depth: ``I(s_0) ∧ T(s_0,s_1) ∧ ... ∧ T(s_{k-1},s_k) ∧ Bad(s_k)``.
It is complete only for finding counterexamples, which makes it the
natural cross-checking oracle for IC3's UNSAFE verdicts and a baseline in
the evaluation harness.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.aiger.aig import AIG
from repro.core.result import CheckOutcome, CheckResult
from repro.core.share import UnrollingInvariantImporter
from repro.core.stats import IC3Stats
from repro.obs.heartbeat import get_heartbeat
from repro.obs.tracer import get_tracer
from repro.ts.unroll import Unroller


class BMC:
    """Bounded model checker over an AIG."""

    def __init__(
        self,
        aig: AIG,
        property_index: int = 0,
        seed: int = 0,
        lemma_port=None,
        lemma_map=None,
    ):
        self.aig = aig
        self.property_index = property_index
        # One persistent unrolling for the whole run: deeper bounds only
        # append frames, and the initial-state constraint rides along as
        # an assumption so the encoding itself stays reusable.
        self.unroller = Unroller(aig, init_as_assumption=True, seed=seed)
        self.stats = IC3Stats()
        self.importer = None
        if lemma_port is not None:
            self.importer = UnrollingInvariantImporter(
                lemma_port, aig, self.unroller, self.stats,
                map_in=lemma_map,
            )

    def check(
        self,
        max_depth: int = 50,
        time_limit: Optional[float] = None,
    ) -> CheckOutcome:
        """Search for a counterexample of length up to ``max_depth``.

        Returns UNSAFE with a trace if one exists within the bound, and
        UNKNOWN otherwise (BMC alone cannot prove safety).
        """
        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else None
        tracer = get_tracer()
        for depth in range(max_depth + 1):
            if deadline is not None and time.perf_counter() > deadline:
                return self._outcome(CheckResult.UNKNOWN, start, reason="time limit reached")
            hb = get_heartbeat()
            if hb.enabled:
                hb.update(engine="bmc", bound=depth, sat_calls=self.stats.sat_calls)
            if self.importer is not None:
                self.importer.drain()
                self.importer.flush()
            bad_lit = self.unroller.bad_lit_at(depth, self.property_index)
            self.stats.sat_calls += 1
            sat_start = time.perf_counter()
            if tracer.enabled:
                with tracer.span("bmc.depth", cat="bmc", depth=depth) as span:
                    satisfiable = self.unroller.solver.solve(
                        self.unroller.init_assumptions() + [bad_lit]
                    )
                    span.add(sat=satisfiable)
            else:
                satisfiable = self.unroller.solver.solve(
                    self.unroller.init_assumptions() + [bad_lit]
                )
            self.stats.sat_time += time.perf_counter() - sat_start
            if satisfiable:
                outcome = self._outcome(CheckResult.UNSAFE, start)
                outcome.trace = self.unroller.extract_trace(depth)
                outcome.frames = depth
                return outcome
        return self._outcome(
            CheckResult.UNKNOWN, start, reason=f"no counterexample up to depth {max_depth}"
        )

    def check_depth(self, depth: int) -> bool:
        """True if a counterexample of exactly ``depth`` transitions exists."""
        bad_lit = self.unroller.bad_lit_at(depth, self.property_index)
        self.stats.sat_calls += 1
        return self.unroller.solver.solve(
            self.unroller.init_assumptions() + [bad_lit]
        )

    # ------------------------------------------------------------------
    def _outcome(self, result: CheckResult, start: float, reason: str = "") -> CheckOutcome:
        solver_stats = self.unroller.solver.stats
        self.stats.solver_conflicts = solver_stats.conflicts
        self.stats.solver_decisions = solver_stats.decisions
        self.stats.solver_propagations = solver_stats.propagations
        return CheckOutcome(
            result=result,
            runtime=time.perf_counter() - start,
            stats=self.stats,
            engine="bmc",
            reason=reason,
        )
