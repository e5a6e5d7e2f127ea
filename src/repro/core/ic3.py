"""The IC3/PDR engine with optional CTP-based lemma prediction.

The engine follows Algorithm 1 of the paper (which itself is standard
IC3): a blocking phase removes property-violating states from the top
frame by recursively blocking their predecessors and generalizing the
resulting lemmas, and a propagation phase pushes lemmas forward until two
consecutive frames coincide, at which point the frame is an inductive
invariant.  With ``IC3Options.enable_prediction`` the modifications of
Algorithm 2 are active: push failures record counterexamples to
propagation, and generalization first tries to predict a lemma from a
failed parent before falling back to dropping variables.

Typical use::

    from repro.benchgen import counter_overflow
    from repro.core import IC3, IC3Options

    outcome = IC3(counter_overflow(8), IC3Options().with_prediction()).check()
    print(outcome.summary())
"""

from __future__ import annotations

import logging
import time
from typing import Dict, Optional, Tuple, Union

from repro.aiger.aig import AIG
from repro.core.frames import BadState, MonolithicFrameManager
from repro.core.generalize import make_generalizer
from repro.core.obligations import Obligation, ObligationQueue
from repro.core.options import IC3Options
from repro.core.predict import LemmaPredictor
from repro.core.result import (
    Certificate,
    CheckOutcome,
    CheckResult,
    CounterexampleTrace,
    TraceStep,
)
from repro.core.stats import IC3Stats
from repro.logic.cube import Cube
from repro.obs.heartbeat import get_heartbeat
from repro.obs.tracer import get_tracer
from repro.ts.system import TransitionSystem

_LOG = logging.getLogger(__name__)
"""Progress goes through ``logging`` (namespace ``repro.core.ic3``), not
``print``: per-frame progress (and the ``ic3.frame`` trace instant) at
INFO, one line per blocked obligation at DEBUG.  The CLI enables INFO
when ``--verbose`` is given; library users configure logging
themselves."""

_MAX_FRAMES = 10_000
"""Give up (UNKNOWN) rather than open more frames than this."""

_MAX_OBLIGATIONS = 1_000_000
"""Give up (UNKNOWN) after this many proof obligations."""

_HEARTBEAT_OBLIGATION_INTERVAL = 16
"""The blocking loop refreshes the heartbeat every this many proof
obligations."""


class IC3:
    """Safety model checker for AIGs / transition systems."""

    def __init__(
        self,
        system: Union[AIG, TransitionSystem],
        options: Optional[IC3Options] = None,
        property_index: int = 0,
    ):
        if isinstance(system, TransitionSystem):
            self.ts = system
        else:
            self.ts = TransitionSystem(system, property_index=property_index)
        self.options = options if options is not None else IC3Options()
        self.options.validate()

        self.stats = IC3Stats()
        self.frames = MonolithicFrameManager(self.ts, self.options, self.stats)
        self._literal_activity: Dict[int, float] = {}
        self.generalizer = make_generalizer(
            self.frames, self.ts, self.options, self.stats, self._literal_activity
        )
        self.predictor = LemmaPredictor(self.frames, self.stats)
        # Lifting is sound for blocking but makes *traces* partial: on
        # models with invariant constraints the deterministic replay of a
        # partial cube may leave the constrained state space, so
        # counterexamples must stay concrete there.
        self._lifting = self.options.enable_lifting and not self.ts.aig.constraints

        self._deadline: Optional[float] = None
        self._start_time = 0.0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        """Run the model checker; returns a :class:`CheckOutcome`."""
        self._start_time = time.perf_counter()
        self._deadline = (
            self._start_time + time_limit if time_limit is not None else None
        )
        try:
            outcome = self._run()
        except _TimeoutSignal:
            outcome = self._unknown("time limit reached")
        except _BudgetSignal as signal:
            outcome = self._unknown(str(signal))
        outcome.runtime = time.perf_counter() - self._start_time
        self.frames.finalize_stats()
        outcome.stats = self.stats
        outcome.stats.time_total = outcome.runtime
        outcome.frames = self.frames.top_level
        return outcome

    # ------------------------------------------------------------------
    # Main loop (Algorithm 1, procedure ic3)
    # ------------------------------------------------------------------
    def _run(self) -> CheckOutcome:
        if not self.ts.latch_vars:
            return self._check_combinational()

        # Counterexamples of length 0: an initial state violates P.
        bad_init = self.frames.get_bad_state(0)
        if bad_init is not None:
            trace = CounterexampleTrace(
                steps=[TraceStep(state=bad_init.state, inputs=bad_init.input_values)]
            )
            return CheckOutcome(
                result=CheckResult.UNSAFE, trace=trace, engine=self._engine_name()
            )

        self.frames.add_frame()  # open F_1 = ⊤
        while True:
            self._check_limits()
            top = self.frames.top_level
            tracer = get_tracer()
            self._publish_heartbeat(top)

            # Blocking phase: make F_top ⇒ P.
            while True:
                self._check_limits()
                bad = self.frames.get_bad_state(top)
                if bad is None:
                    break
                with tracer.span("ic3.block", cat="ic3", level=top):
                    blocked, trace = self._block_bad_state(bad, top)
                if not blocked:
                    return CheckOutcome(
                        result=CheckResult.UNSAFE,
                        trace=trace,
                        engine=self._engine_name(),
                    )

            if self.frames.top_level + 1 > _MAX_FRAMES:
                return self._unknown("frame limit reached")
            with tracer.span("ic3.extend", cat="ic3", new_top=top + 1):
                self.frames.add_frame()
            invariant_level = self._propagate()
            if _LOG.isEnabledFor(logging.INFO):
                self._log_frame_progress()
            if invariant_level is not None:
                certificate = Certificate(
                    clauses=self.frames.frame_clauses(invariant_level),
                    level=invariant_level,
                )
                return CheckOutcome(
                    result=CheckResult.SAFE,
                    certificate=certificate,
                    engine=self._engine_name(),
                )

    # ------------------------------------------------------------------
    # Blocking phase
    # ------------------------------------------------------------------
    def _block_bad_state(
        self, bad: BadState, level: int
    ) -> Tuple[bool, Optional[CounterexampleTrace]]:
        """Block a bad state of the top frame; False means a real counterexample."""
        cube = bad.state
        if self._lifting:
            cube = self.frames.lift_predecessor(cube, bad.inputs)
        queue = ObligationQueue()
        queue.push(
            Obligation(
                level=level,
                depth=0,
                cube=cube,
                inputs=bad.input_values,
                successor=None,
            )
        )

        while not queue.is_empty():
            self._check_limits()
            obligation = queue.pop()
            self.stats.obligations_processed += 1
            if self.stats.obligations_processed > _MAX_OBLIGATIONS:
                raise _BudgetSignal("obligation limit reached")
            if self.stats.obligations_processed % _HEARTBEAT_OBLIGATION_INTERVAL == 0:
                hb = get_heartbeat()
                if hb.enabled:
                    hb.update(
                        obligations=self.stats.obligations_processed,
                        sat_calls=self.stats.sat_calls,
                    )
            get_tracer().sample(
                "ic3.obligations",
                self.stats.obligations_processed,
                cat="ic3",
                level=obligation.level,
                depth=obligation.depth,
            )

            if obligation.level == 0:
                return False, self._build_trace(obligation)

            if self.frames.is_blocked_syntactically(obligation.cube, obligation.level):
                self._requeue_above(queue, obligation)
                continue

            result = self._consecution(obligation.level - 1, obligation.cube)
            if result.holds:
                base = self.generalizer.apply_core(obligation.cube, result.core_cube)
                lemma_cube, push_start = self._generalize(base, obligation)
                final_level = self._push_lemma(lemma_cube, max(push_start, obligation.level))
                self.frames.add_blocked_cube(lemma_cube, final_level)
                self._bump_activity(lemma_cube)
                _LOG.debug(
                    "[ic3] blocked |cube|=%d at level %d", len(lemma_cube), final_level
                )
                self._requeue_above(queue, obligation, at_level=final_level + 1)
            else:
                self.stats.ctis += 1
                predecessor = result.predecessor
                if self._lifting and predecessor is not None:
                    predecessor = self.frames.lift_predecessor(
                        predecessor, result.inputs, obligation.cube
                    )
                queue.push(
                    Obligation(
                        level=obligation.level - 1,
                        depth=obligation.depth + 1,
                        cube=predecessor,
                        inputs=result.input_values,
                        successor=obligation,
                    )
                )
                queue.push(obligation)
        return True, None

    def _requeue_above(
        self, queue: ObligationQueue, obligation: Obligation, at_level: Optional[int] = None
    ) -> None:
        """Re-enqueue an obligation one frame higher (IC3ref-style aggressive push)."""
        if not self.options.aggressive_push:
            return
        level = at_level if at_level is not None else obligation.level + 1
        if level > self.frames.top_level:
            return
        queue.push(
            Obligation(
                level=level,
                depth=obligation.depth,
                cube=obligation.cube,
                inputs=obligation.inputs,
                successor=obligation.successor,
            )
        )

    def _consecution(self, level: int, cube: Cube):
        """Relative-induction query, traced as an ``ic3.consecution`` span."""
        with get_tracer().span(
            "ic3.consecution", cat="ic3", level=level, size=len(cube)
        ) as span:
            result = self.frames.consecution(level, cube)
            span.add(holds=result.holds)
        return result

    # ------------------------------------------------------------------
    # Generalization (Algorithm 2, function generalize)
    # ------------------------------------------------------------------
    def _generalize(self, cube: Cube, obligation: Obligation) -> Tuple[Cube, int]:
        """Generalize a blockable cube; returns (cube, minimum push level).

        When prediction succeeds the predicted cube is returned unchanged
        (it is already considered high quality); otherwise the configured
        MIC strategy runs on the core-shrunk cube.
        """
        level = obligation.level
        self.stats.generalizations += 1
        tracer = get_tracer()

        if self.options.enable_prediction:
            start = time.perf_counter()
            with tracer.span(
                "ic3.predict", cat="ic3", level=level, size=len(obligation.cube)
            ) as span:
                prediction = self.predictor.predict(obligation.cube, level)
                span.add(hit=prediction is not None)
            self.stats.time_prediction += time.perf_counter() - start
            if prediction is not None:
                return prediction.cube, level

        start = time.perf_counter()
        with tracer.span("ic3.generalize", cat="ic3", level=level, size=len(cube)) as span:
            generalized = self.generalizer.generalize(cube, level)
            span.add(final_size=len(generalized))
        self.stats.time_generalization += time.perf_counter() - start
        return generalized, level

    def _push_lemma(self, cube: Cube, level: int) -> int:
        """Push a freshly learnt lemma as far forward as it stays inductive.

        Records the counterexample to propagation of the final, failed push
        (Algorithm 2 line 38) so that later generalizations can predict
        from it.
        """
        current = level
        while current < self.frames.top_level:
            result = self._consecution(current, cube)
            if result.holds:
                current += 1
                continue
            if self.options.enable_prediction:
                self.predictor.record_push_failure(cube, current, result.successor)
            break
        return current

    def _bump_activity(self, cube: Cube) -> None:
        for literal in cube:
            var = abs(literal)
            self._literal_activity[var] = self._literal_activity.get(var, 0.0) + 1.0

    # ------------------------------------------------------------------
    # Propagation phase (Algorithm 2, function propagate)
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[int]:
        """Push lemmas forward; returns the invariant level if a fixpoint appears."""
        reused = self.stats.consecution_reuses
        with get_tracer().span(
            "ic3.propagate", cat="ic3", top=self.frames.top_level
        ) as span:
            invariant_level = self._propagate_inner()
            span.add(
                fixpoint=invariant_level is not None,
                reused=self.stats.consecution_reuses - reused,
            )
        return invariant_level

    def _propagate_inner(self) -> Optional[int]:
        """One propagation sweep over the levels 1..k-1.

        Pushes that a stored consecution witness proves will fail cost
        no SAT call, and a push the witness of its last failure still
        refutes is not asked at all; its CTP is recorded for lazy
        resolution (see :class:`repro.core.frames.FrameManagerBase`).
        """
        start = time.perf_counter()
        predicting = self.options.enable_prediction
        if predicting:
            self.predictor.clear_table()  # Algorithm 2 line 44

        frames = self.frames
        invariant_level: Optional[int] = None
        for level in range(1, frames.top_level):
            for cube in frames.lemmas_exactly_at(level):
                self._check_limits()
                refuted = frames.refuted_push(level, cube)
                if refuted:
                    if predicting:
                        self.predictor.record_refuted_push(cube, level, refuted)
                    continue
                result = self._consecution(level, cube)
                if result.holds:
                    frames.promote_cube(cube, level, level + 1)
                elif predicting:
                    self.predictor.record_push_failure(cube, level, result.successor)
            if frames.frames_equal(level):
                invariant_level = level + 1
                break

        # Decay literal activities once per propagation round.
        for var in self._literal_activity:
            self._literal_activity[var] *= 0.9

        self.stats.time_propagation += time.perf_counter() - start
        return invariant_level

    # ------------------------------------------------------------------
    # Counterexample / special cases
    # ------------------------------------------------------------------
    def _build_trace(self, initial_obligation: Obligation) -> CounterexampleTrace:
        """Assemble the trace from the obligation chain reaching frame 0."""
        steps = [
            TraceStep(state=node.cube, inputs=node.inputs)
            for node in initial_obligation.chain_to_bad()
        ]
        return CounterexampleTrace(steps=steps)

    def _check_combinational(self) -> CheckOutcome:
        """Handle latch-free circuits: the property is violated iff Bad is SAT."""
        bad = self.frames.get_bad_state(0)
        if bad is None:
            return CheckOutcome(
                result=CheckResult.SAFE,
                certificate=Certificate(clauses=[], level=0),
                engine=self._engine_name(),
            )
        trace = CounterexampleTrace(
            steps=[TraceStep(state=bad.state, inputs=bad.input_values)]
        )
        return CheckOutcome(
            result=CheckResult.UNSAFE, trace=trace, engine=self._engine_name()
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _engine_name(self) -> str:
        return "ic3-pl" if self.options.enable_prediction else "ic3"

    def _unknown(self, reason: str) -> CheckOutcome:
        return CheckOutcome(
            result=CheckResult.UNKNOWN, reason=reason, engine=self._engine_name()
        )

    def _publish_heartbeat(self, top: int) -> None:
        """Refresh live progress once per outer-loop round (cheap: a few
        dict writes behind one ``enabled`` check)."""
        hb = get_heartbeat()
        if not hb.enabled:
            return
        hb.update(
            engine=self._engine_name(),
            frame=top,
            lemmas=sum(self.frames.lemma_counts()),
            obligations=self.stats.obligations_processed,
            sat_calls=self.stats.sat_calls,
        )

    def _check_limits(self) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise _TimeoutSignal()

    def _log_frame_progress(self) -> None:
        counts = self.frames.lemma_counts()
        _LOG.info(
            "[ic3] k=%d lemmas/level=%s sat_calls=%d predictions=%d/%d",
            self.frames.top_level,
            counts,
            self.stats.sat_calls,
            self.stats.prediction_successes,
            self.stats.prediction_queries,
        )
        get_tracer().instant(
            "ic3.frame",
            cat="ic3",
            k=self.frames.top_level,
            lemmas=sum(counts),
            sat_calls=self.stats.sat_calls,
        )


class _TimeoutSignal(Exception):
    """Internal control-flow signal for the per-run time limit."""


class _BudgetSignal(Exception):
    """Internal control-flow signal for obligation/frame budgets."""
