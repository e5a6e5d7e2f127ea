"""k-induction.

A property is k-inductive if it holds in the first ``k`` states of every
execution (base case, a BMC query) and any ``k`` consecutive property-
satisfying states are followed by another one (step case, checked on an
unrolling that is not anchored at the initial states).  k-induction can
prove safety for many shallow properties and serves as an additional
baseline and cross-check for IC3's SAFE verdicts.

Both cases run on **one** persistent unrolling per engine: the
initial-state constraint is guarded by an activation literal (see
:class:`~repro.ts.unroll.Unroller`), so the base case assumes it while
the step case leaves frame 0 unconstrained — the time-frame clauses and
everything the solver learns about them are shared, and increasing ``k``
only appends frames instead of re-encoding two unrollings per bound.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.aiger.aig import AIG
from repro.core.result import CheckOutcome, CheckResult, Certificate
from repro.core.share import UnrollingInvariantImporter
from repro.core.stats import IC3Stats
from repro.obs.heartbeat import get_heartbeat
from repro.obs.tracer import get_tracer
from repro.ts.unroll import Unroller


class KInduction:
    """k-induction engine over an AIG."""

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
        self.unroller = Unroller(
            aig, use_init=True, init_as_assumption=True, seed=seed
        )
        self.stats = IC3Stats()
        self.importer = None
        if lemma_port is not None:
            self.importer = UnrollingInvariantImporter(
                lemma_port, aig, self.unroller, self.stats,
                map_in=lemma_map,
            )

    def check(
        self,
        max_k: int = 20,
        time_limit: Optional[float] = None,
    ) -> CheckOutcome:
        """Try to prove (or refute) the property with increasing ``k``."""
        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else None

        unroller = self.unroller

        for k in range(1, max_k + 1):
            if deadline is not None and time.perf_counter() > deadline:
                return self._outcome(CheckResult.UNKNOWN, start, "time limit reached")
            hb = get_heartbeat()
            if hb.enabled:
                hb.update(engine="k-induction", k=k, sat_calls=self.stats.sat_calls)
            if self.importer is not None:
                self.importer.drain()
                self.importer.flush()

            # Base case: no counterexample of length < k (frame 0 is
            # anchored at the initial states through the init assumption).
            bad = unroller.bad_lit_at(k - 1, self.property_index)
            self.stats.sat_calls += 1
            sat_start = time.perf_counter()
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span("kind.base", cat="kind", k=k) as span:
                    base_sat = unroller.solver.solve(unroller.init_assumptions() + [bad])
                    span.add(sat=base_sat)
            else:
                base_sat = unroller.solver.solve(unroller.init_assumptions() + [bad])
            self.stats.sat_time += time.perf_counter() - sat_start
            if base_sat:
                outcome = self._outcome(CheckResult.UNSAFE, start)
                outcome.trace = unroller.extract_trace(k - 1)
                outcome.frames = k - 1
                return outcome

            # Step case: k good states are followed by a good state, on
            # the same unrolling but without the init assumption.
            # Assume !bad at frames 0..k-1, ask for bad at frame k.
            assumptions = [
                -unroller.bad_lit_at(frame, self.property_index)
                for frame in range(k)
            ]
            assumptions.append(unroller.bad_lit_at(k, self.property_index))
            self.stats.sat_calls += 1
            sat_start = time.perf_counter()
            if tracer.enabled:
                with tracer.span("kind.step", cat="kind", k=k) as span:
                    step_sat = unroller.solver.solve(assumptions)
                    span.add(sat=step_sat)
            else:
                step_sat = unroller.solver.solve(assumptions)
            self.stats.sat_time += time.perf_counter() - sat_start
            if not step_sat:
                outcome = self._outcome(CheckResult.SAFE, start)
                outcome.certificate = Certificate(clauses=[], level=k)
                outcome.frames = k
                return outcome

        reason = f"property is not k-inductive for k <= {max_k}"
        if self.importer is None or deadline is None:
            return self._outcome(CheckResult.UNKNOWN, start, reason)
        return self._cooperative_wait(max_k, start, deadline, reason)

    def _cooperative_wait(
        self, max_k: int, start: float, deadline: float, reason: str
    ) -> CheckOutcome:
        """Keep listening for foreign invariants after the sweep is exhausted.

        Every base case up to ``max_k`` is already UNSAT, and imported
        clauses are validated global invariants, so retrying only the step
        cases on the strengthened unrolling is sound: a property that is
        not k-inductive on its own often becomes (1-)inductive relative to
        invariants another portfolio member has proven.  The sleep yields
        the core to the members still deriving lemmas.
        """
        tracer = get_tracer()
        quiet = 0
        while time.perf_counter() <= deadline:
            imported_before = self.stats.lemmas_imported
            self.importer.drain()
            if self.stats.lemmas_imported == imported_before:
                quiet += 1
                # The importer batches Houdini attempts; once the stream
                # has been quiet a few polls, force the deferred attempt
                # so a final burst of donor lemmas is not left unused.
                if quiet < 4 or self.importer.flush() == 0:
                    time.sleep(0.005)
                    continue
            quiet = 0
            for k in range(1, max_k + 1):
                if time.perf_counter() > deadline:
                    break
                assumptions = [
                    -self.unroller.bad_lit_at(frame, self.property_index)
                    for frame in range(k)
                ]
                assumptions.append(self.unroller.bad_lit_at(k, self.property_index))
                self.stats.sat_calls += 1
                sat_start = time.perf_counter()
                if tracer.enabled:
                    with tracer.span("kind.step", cat="kind", k=k, retry=True) as span:
                        step_sat = self.unroller.solver.solve(assumptions)
                        span.add(sat=step_sat)
                else:
                    step_sat = self.unroller.solver.solve(assumptions)
                self.stats.sat_time += time.perf_counter() - sat_start
                if not step_sat:
                    outcome = self._outcome(CheckResult.SAFE, start)
                    outcome.certificate = Certificate(clauses=[], level=k)
                    outcome.frames = k
                    return outcome
        return self._outcome(CheckResult.UNKNOWN, start, reason)

    def _outcome(self, result: CheckResult, start: float, reason: str = "") -> CheckOutcome:
        solver_stats = self.unroller.solver.stats
        self.stats.solver_conflicts = solver_stats.conflicts
        self.stats.solver_decisions = solver_stats.decisions
        self.stats.solver_propagations = solver_stats.propagations
        return CheckOutcome(
            result=result,
            runtime=time.perf_counter() - start,
            stats=self.stats,
            engine="k-induction",
            reason=reason,
        )
