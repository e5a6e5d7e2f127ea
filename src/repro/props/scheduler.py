"""The multi-property scheduler: one AIG, one verdict per property.

A HWMCC-style AIGER 1.9 model carries a whole batch of obligations —
several bad outputs, justice properties, fairness — and solving them one
process at a time wastes exactly the substrate PR 3 made persistent.
:class:`PropertyScheduler` turns the batch into a schedule that shares
work where that is sound:

* **Shared-unrolling BMC sweep** — all safety obligations are probed on
  ONE incremental unrolling (one solver, one set of frame clauses, one
  learnt-clause database); each depth asks one assumption query per
  unresolved property, so shallow counterexamples for the whole batch
  cost one BMC run instead of N.
* **Shared-lemma propagation** — an invariant certificate proved for one
  safety property is (after independent validation) a set of clauses
  that hold on *every* reachable state, so the scheduler seeds them as
  free lemmas into the IC3 runs of sibling properties on overlapping
  cones (:meth:`repro.core.ic3.IC3` ``seed_clauses``); small cones are
  solved first so their certificates are available to the larger ones.
* **Liveness strategy** — justice obligations run the configured engine
  ladder (k-liveness for proofs first, liveness-to-safety for
  refutations and as the complete fallback), each compiled circuit going
  through the ordinary reduction pipeline.

Every witness is validated against the *original* AIG (traces by
simulation, lassos by :func:`repro.props.witness.check_lasso`, liveness
certificates by recompilation) before a verdict is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.aiger.aig import AIG
from repro.core.invariant import (
    CertificateError,
    check_certificate,
    check_counterexample,
)
from repro.core.result import CheckOutcome, CheckResult
from repro.core.stats import IC3Stats
from repro.engines.registry import create_engine
from repro.props.obligations import PropertyObligation, enumerate_obligations
from repro.props.witness import check_lasso, check_liveness_certificate
from repro.reduce.coi import coi_variables
from repro.ts.unroll import Unroller


class SchedulerError(Exception):
    """Raised for empty batches or invalid property selections."""


@dataclass
class PropertyVerdict:
    """The scheduler's answer for one obligation."""

    obligation: PropertyObligation
    outcome: CheckOutcome
    engine: str
    runtime: float
    validated: Optional[bool] = None
    shared_lemmas_applied: int = 0

    @property
    def result(self) -> CheckResult:
        """The verdict of this property."""
        return self.outcome.result

    def detail(self) -> str:
        """Short human-readable witness description."""
        outcome = self.outcome
        if outcome.result == CheckResult.SAFE and outcome.certificate is not None:
            text = f"invariant with {len(outcome.certificate)} clauses"
            if self.shared_lemmas_applied:
                text += f" ({self.shared_lemmas_applied} shared)"
            return text
        if outcome.result == CheckResult.UNSAFE and outcome.lasso is not None:
            return (
                f"lasso with stem {outcome.lasso.stem_length} + "
                f"loop {outcome.lasso.loop_length}"
            )
        if outcome.result == CheckResult.UNSAFE and outcome.trace is not None:
            return f"counterexample of depth {outcome.trace.depth}"
        return outcome.reason or ""

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable record for manifests and CLI output."""
        return {
            "number": self.obligation.number,
            "label": self.obligation.label,
            "kind": self.obligation.kind,
            "index": self.obligation.index,
            "result": self.result.value,
            "engine": self.engine,
            "runtime": round(self.runtime, 6),
            "validated": self.validated,
            "shared_lemmas_applied": self.shared_lemmas_applied,
            "detail": self.detail(),
            "transformation": self.outcome.transformation,
        }


@dataclass
class ScheduleResult:
    """Everything one scheduler run produced."""

    verdicts: List[PropertyVerdict] = field(default_factory=list)
    runtime: float = 0.0
    shared_bmc_queries: int = 0
    shared_lemmas_pooled: int = 0

    @property
    def aggregate(self) -> CheckResult:
        """UNSAFE if any property fails, SAFE only when every one is proved."""
        results = [v.result for v in self.verdicts]
        if CheckResult.UNSAFE in results:
            return CheckResult.UNSAFE
        if CheckResult.UNKNOWN in results:
            return CheckResult.UNKNOWN
        return CheckResult.SAFE

    @property
    def all_validated(self) -> bool:
        """True when no witness failed validation (skipped counts as good)."""
        return all(v.validated is not False for v in self.verdicts)

    def to_outcome(self) -> CheckOutcome:
        """Flatten the schedule into one Engine-protocol outcome."""
        stats = IC3Stats()
        frames = 0
        for verdict in self.verdicts:
            stats = stats.merge(verdict.outcome.stats)
            frames = max(frames, verdict.outcome.frames)
        stats.shared_unrolling_queries += self.shared_bmc_queries
        solved = sum(1 for v in self.verdicts if v.result.solved)
        return CheckOutcome(
            result=self.aggregate,
            runtime=self.runtime,
            frames=frames,
            stats=stats,
            engine="scheduler",
            reason=f"{solved}/{len(self.verdicts)} properties solved",
            properties=[v.as_dict() for v in self.verdicts],
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable record of the whole run."""
        return {
            "aggregate": self.aggregate.value,
            "runtime": round(self.runtime, 6),
            "shared_bmc_queries": self.shared_bmc_queries,
            "shared_lemmas_pooled": self.shared_lemmas_pooled,
            "properties": [v.as_dict() for v in self.verdicts],
        }

    def format_table(self) -> str:
        """Fixed-width per-property table for the CLI."""
        header = (
            f"{'#':>3s} {'prop':<6s} {'kind':<8s} {'verdict':<8s} "
            f"{'engine':<10s} {'time':>8s}  detail"
        )
        lines = [header, "-" * len(header)]
        for verdict in self.verdicts:
            lines.append(
                f"{verdict.obligation.number:>3d} "
                f"{verdict.obligation.label:<6s} "
                f"{verdict.obligation.kind:<8s} "
                f"{verdict.result.value:<8s} "
                f"{verdict.engine:<10s} "
                f"{verdict.runtime:>7.2f}s  "
                f"{verdict.detail()}"
            )
        lines.append("-" * len(header))
        lines.append(f"aggregate: {self.aggregate.value} ({self.runtime:.2f}s)")
        return "\n".join(lines)


@dataclass
class _PooledLemma:
    """One invariant clause available for sibling seeding."""

    index_clause: Tuple[int, ...]
    latch_indices: Set[int]
    source: str


class PropertyScheduler:
    """Runs every obligation of one AIG on a shared solving substrate."""

    def __init__(
        self,
        aig: AIG,
        *,
        engine: str = "ic3-pl",
        justice_engines: Sequence[str] = ("klive", "l2s"),
        options=None,
        reduce: bool = True,
        passes: Optional[Sequence[str]] = None,
        property_timeout: Optional[float] = None,
        share_lemmas: bool = True,
        share_unrollings: bool = True,
        shared_bmc_depth: int = 15,
        shared_bmc_fraction: float = 0.3,
        use_outputs_as_bad: bool = True,
        properties: Optional[Sequence[int]] = None,
        max_k: int = 16,
        max_depth: int = 50,
        validate: bool = True,
        frame_backend: Optional[str] = None,
        **_ignored,
    ):
        # The default engine kinds (ic3*/bmc/kind/l2s/klive) register on
        # import of repro.engines; make sure that happened even when the
        # scheduler is used straight from repro.props.
        import repro.engines  # noqa: F401

        self.aig = aig
        self.engine = engine
        self.justice_engines = tuple(justice_engines)
        self.options = options
        self.reduce = reduce
        self.passes = passes
        self.property_timeout = property_timeout
        self.share_lemmas = share_lemmas
        self.share_unrollings = share_unrollings
        self.shared_bmc_depth = shared_bmc_depth
        self.shared_bmc_fraction = shared_bmc_fraction
        self.max_k = max_k
        self.max_depth = max_depth
        self.validate = validate
        self.frame_backend = frame_backend

        all_obligations = enumerate_obligations(aig, use_outputs_as_bad)
        if not all_obligations:
            raise SchedulerError(
                "the AIG declares no properties (no bads, outputs or justice)"
            )
        if properties is None:
            self.obligations = all_obligations
        else:
            by_number = {ob.number: ob for ob in all_obligations}
            missing = [n for n in properties if n not in by_number]
            if missing:
                available = ", ".join(
                    f"{ob.number}={ob.label}" for ob in all_obligations
                )
                raise SchedulerError(
                    f"unknown property number(s) {missing}; available: {available}"
                )
            self.obligations = [by_number[n] for n in properties]

        self._pool: List[_PooledLemma] = []
        self._original_ts = None

    # ------------------------------------------------------------------
    def run(self, time_limit: Optional[float] = None) -> ScheduleResult:
        """Verify every scheduled obligation; returns one verdict each."""
        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else None
        result = ScheduleResult()
        verdicts: Dict[int, PropertyVerdict] = {}

        safety = [ob for ob in self.obligations if ob.is_safety]
        justice = [ob for ob in self.obligations if ob.is_justice]

        # Phase 1: one shared unrolling probes every safety property for
        # shallow counterexamples.
        if self.share_unrollings and len(safety) > 1:
            budget = None
            if time_limit is not None:
                budget = start + time_limit * self.shared_bmc_fraction
            resolved, queries = self._shared_bmc(safety, budget)
            result.shared_bmc_queries = queries
            verdicts.update(resolved)

        # Phase 2: remaining safety obligations, smallest cone first so
        # proved invariants seed the bigger siblings.
        remaining = [ob for ob in safety if ob.number not in verdicts]
        remaining.sort(key=lambda ob: (len(self._cone(ob)), ob.number))
        for position, obligation in enumerate(remaining):
            budget = self._budget(deadline, len(remaining) - position + len(justice))
            verdicts[obligation.number] = self._run_safety(obligation, budget)

        # Phase 3: justice obligations through the liveness engine ladder.
        for position, obligation in enumerate(justice):
            budget = self._budget(deadline, len(justice) - position)
            verdicts[obligation.number] = self._run_justice(obligation, budget)

        result.verdicts = [verdicts[ob.number] for ob in self.obligations]
        result.shared_lemmas_pooled = len(self._pool)
        result.runtime = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------
    # Phase 1: shared-unrolling BMC
    # ------------------------------------------------------------------
    def _shared_bmc(
        self, safety: List[PropertyObligation], deadline: Optional[float]
    ) -> Tuple[Dict[int, PropertyVerdict], int]:
        """Probe all safety obligations on one incremental unrolling."""
        unroller = Unroller(self.aig, init_as_assumption=True)
        unresolved = list(safety)
        resolved: Dict[int, PropertyVerdict] = {}
        queries = 0
        spent_on: Dict[int, float] = {ob.number: 0.0 for ob in safety}
        for depth in range(self.shared_bmc_depth + 1):
            if deadline is not None and time.perf_counter() > deadline:
                break
            still = []
            for obligation in unresolved:
                if deadline is not None and time.perf_counter() > deadline:
                    still.append(obligation)
                    continue
                query_start = time.perf_counter()
                bad = unroller.bad_lit_at(depth, obligation.index)
                satisfiable = unroller.solver.solve(
                    unroller.init_assumptions() + [bad]
                )
                queries += 1
                spent_on[obligation.number] += time.perf_counter() - query_start
                if not satisfiable:
                    still.append(obligation)
                    continue
                outcome = CheckOutcome(
                    result=CheckResult.UNSAFE,
                    runtime=spent_on[obligation.number],
                    frames=depth,
                    trace=unroller.extract_trace(depth),
                    engine="bmc",
                )
                validated = self._validate_safety(obligation, outcome)
                resolved[obligation.number] = PropertyVerdict(
                    obligation=obligation,
                    outcome=outcome,
                    engine="bmc(shared)",
                    runtime=spent_on[obligation.number],
                    validated=validated,
                )
            unresolved = still
            if not unresolved:
                break
        return resolved, queries

    # ------------------------------------------------------------------
    # Phase 2: per-property safety engines with lemma sharing
    # ------------------------------------------------------------------
    def _run_safety(
        self, obligation: PropertyObligation, budget: Optional[float]
    ) -> PropertyVerdict:
        start = time.perf_counter()
        shared = self._lemmas_for(obligation) if self.share_lemmas else []
        engine = create_engine(
            self.engine,
            self.aig,
            options=self.options,
            property_index=obligation.index,
            reduce=self.reduce,
            passes=self.passes,
            shared_lemmas=shared,
            frame_backend=self.frame_backend,
            max_depth=self.max_depth,
        )
        outcome = engine.check(time_limit=budget)
        runtime = time.perf_counter() - start
        validated = self._validate_safety(obligation, outcome)
        if (
            outcome.result == CheckResult.SAFE
            and outcome.certificate is not None
            and validated
        ):
            self._harvest(obligation, outcome)
        return PropertyVerdict(
            obligation=obligation,
            outcome=outcome,
            engine=outcome.winner or outcome.engine,
            runtime=runtime,
            validated=validated,
            shared_lemmas_applied=outcome.stats.shared_lemmas_applied,
        )

    def _validate_safety(
        self, obligation: PropertyObligation, outcome: CheckOutcome
    ) -> Optional[bool]:
        """Validate a safety witness against the original AIG.

        SAFE certificates are always checked (they gate the shared-lemma
        pool); traces only when ``validate`` is on.
        """
        try:
            if outcome.result == CheckResult.SAFE and outcome.certificate is not None:
                return check_certificate(
                    self.aig, outcome.certificate, property_index=obligation.index
                )
            if (
                self.validate
                and outcome.result == CheckResult.UNSAFE
                and outcome.trace is not None
            ):
                return check_counterexample(
                    self.aig, outcome.trace, property_index=obligation.index
                )
        except CertificateError:
            return False
        return None

    # ------------------------------------------------------------------
    # Phase 3: justice obligations
    # ------------------------------------------------------------------
    def _run_justice(
        self, obligation: PropertyObligation, budget: Optional[float]
    ) -> PropertyVerdict:
        start = time.perf_counter()
        last_outcome: Optional[CheckOutcome] = None
        last_engine = self.justice_engines[0] if self.justice_engines else "none"
        for position, kind in enumerate(self.justice_engines):
            slice_budget = None
            if budget is not None:
                elapsed = time.perf_counter() - start
                remaining = max(0.0, budget - elapsed)
                slice_budget = remaining / (len(self.justice_engines) - position)
            engine = create_engine(
                kind,
                self.aig,
                options=self.options,
                justice_index=obligation.index,
                reduce=self.reduce,
                passes=self.passes,
                max_k=self.max_k,
                max_depth=self.max_depth,
                frame_backend=self.frame_backend,
            )
            outcome = engine.check(time_limit=slice_budget)
            last_outcome, last_engine = outcome, kind
            if outcome.solved:
                break
        if last_outcome is None:
            last_outcome = CheckOutcome(
                result=CheckResult.UNKNOWN,
                engine=last_engine,
                reason="no justice engines configured (justice_engines is empty)",
            )
        runtime = time.perf_counter() - start
        validated = self._validate_justice(obligation, last_outcome)
        return PropertyVerdict(
            obligation=obligation,
            outcome=last_outcome,
            engine=last_engine,
            runtime=runtime,
            validated=validated,
        )

    def _validate_justice(
        self, obligation: PropertyObligation, outcome: Optional[CheckOutcome]
    ) -> Optional[bool]:
        if outcome is None:
            return None
        try:
            if outcome.result == CheckResult.UNSAFE and outcome.lasso is not None:
                return check_lasso(self.aig, outcome.lasso, obligation.index)
            if (
                self.validate
                and outcome.result == CheckResult.SAFE
                and outcome.certificate is not None
                and outcome.transformation is not None
            ):
                transformation = outcome.transformation
                return check_liveness_certificate(
                    self.aig,
                    outcome.certificate,
                    justice_index=obligation.index,
                    method=str(transformation.get("kind", "l2s")),
                    max_k=int(transformation.get("max_k", self.max_k)),
                    k=int(transformation.get("k", 0)),
                )
        except CertificateError:
            return False
        return None

    # ------------------------------------------------------------------
    # Shared-lemma pool
    # ------------------------------------------------------------------
    def _cone(self, obligation: PropertyObligation) -> Set[int]:
        """Latch indices in the obligation's cone of influence."""
        cone_vars = coi_variables(self.aig, property_index=obligation.index)
        return {
            index
            for index, latch in enumerate(self.aig.latches)
            if (latch.lit >> 1) in cone_vars
        }

    def _latch_index_of_var(self) -> Dict[int, int]:
        if self._original_ts is None:
            from repro.ts.system import TransitionSystem

            self._original_ts = TransitionSystem(
                self.aig, property_index=0, warn_on_ambiguity=False
            )
        return {
            var: index
            for index, var in enumerate(self._original_ts.latch_vars)
        }

    def _harvest(self, obligation: PropertyObligation, outcome: CheckOutcome) -> None:
        """Pool a validated certificate's clauses for sibling seeding."""
        if not self.share_lemmas:
            return
        index_of = self._latch_index_of_var()
        for clause in outcome.certificate.clauses:
            index_clause = []
            ok = True
            for lit in clause:
                index = index_of.get(abs(lit))
                if index is None:
                    ok = False
                    break
                index_clause.append((index + 1) if lit > 0 else -(index + 1))
            if ok and index_clause:
                self._pool.append(
                    _PooledLemma(
                        index_clause=tuple(index_clause),
                        latch_indices={abs(lit) - 1 for lit in index_clause},
                        source=obligation.label,
                    )
                )

    def _lemmas_for(self, obligation: PropertyObligation) -> List[Tuple[int, ...]]:
        """Pooled clauses that live entirely inside the obligation's cone."""
        if not self._pool:
            return []
        cone = self._cone(obligation)
        return [
            lemma.index_clause
            for lemma in self._pool
            if lemma.latch_indices <= cone
        ]

    # ------------------------------------------------------------------
    def _budget(
        self, deadline: Optional[float], slots_left: int
    ) -> Optional[float]:
        """Fair share of the remaining wall clock for the next obligation."""
        if deadline is None:
            return self.property_timeout
        remaining = max(0.0, deadline - time.perf_counter())
        share = remaining / max(1, slots_left)
        if self.property_timeout is not None:
            share = min(share, self.property_timeout)
        return share


class SchedulerEngine:
    """The scheduler behind the Engine protocol (one aggregate outcome)."""

    name = "scheduler"

    def __init__(
        self,
        aig: AIG,
        options=None,
        property_index: Optional[int] = None,
        properties: Optional[Sequence[int]] = None,
        **kwargs,
    ):
        if properties is None and property_index is not None:
            properties = [property_index]
        kwargs.pop("shared_lemmas", None)
        self.scheduler = PropertyScheduler(
            aig, options=options, properties=properties, **kwargs
        )
        self.result: Optional[ScheduleResult] = None

    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        self.result = self.scheduler.run(time_limit=time_limit)
        return self.result.to_outcome()


# The "scheduler" engine kind is registered by repro.engines.liveness
# (lazily, to keep repro.props importable on its own without a cycle).
