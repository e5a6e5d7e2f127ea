"""Portfolio solving: race several engines, first definite verdict wins.

IC3, BMC and k-induction have complementary strengths — BMC finds shallow
counterexamples fastest, k-induction proves shallow inductive properties
with two SAT calls per bound, IC3 handles everything else.  The
:class:`PortfolioEngine` runs the registered member engines concurrently
in separate OS processes (real parallelism; the pure-Python SAT solver
holds the GIL), returns as soon as any member reaches SAFE or UNSAFE,
terminates the losers, and records the winner in
:attr:`~repro.core.result.CheckOutcome.winner`.

A member that errors out or returns UNKNOWN just drops out of the race;
UNKNOWN is only returned once every member has given up or the time limit
expired.  The parent enforces the ``time_limit`` *hard* — members stuck
inside a single SAT call are killed shortly after the budget, so a
portfolio ``check`` never overshoots the budget by more than a small
grace period.  Members are children of :class:`repro.supervise.Supervisor`.

Members may repeat an engine kind (``["ic3-pl", "ic3-pl", "bmc"]``):
duplicates are auto-labelled ``name#k``, and every member gets its own
SAT-kernel seed, so repeated members search differently.  Each member
receives the portfolio's :class:`~repro.core.options.IC3Options` with
only that seed replaced; the frame substrate and every other setting
reach the members unchanged.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aiger.aig import AIG
from repro.core.options import IC3Options
from repro.core.result import CheckOutcome, CheckResult
from repro.core.stats import IC3Stats
from repro.engines.adapters import finish_outcome, prepare_model
from repro.engines.registry import canonical_name, create_engine, register_engine
from repro.obs.heartbeat import get_heartbeat
from repro.obs.tracer import get_tracer
from repro.supervise import Child, Supervisor

DEFAULT_PORTFOLIO: Tuple[str, ...] = ("ic3-pl", "bmc", "kind")

_POLL_INTERVAL = 0.05
"""How often the parent re-checks deadlines while waiting on members."""


@dataclass
class PortfolioOptions:
    """Portfolio member seeding."""

    base_seed: int = 1
    """Member ``i`` runs with the options ``replace(options, seed=base_seed
    + i)`` so the kernels branch differently.  0 leaves every member on
    the portfolio's own options (by default the deterministic unseeded
    decision order)."""


@dataclass
class _MemberPlan:
    """One spawn slot: resolved label, engine name, options and kwargs."""

    label: str
    engine: str
    options: Optional[IC3Options]
    kwargs: Dict[str, object] = field(default_factory=dict)


def _run_member(label, engine_name, aig, options, property_index, time_limit, kwargs):
    """Member body: build one member engine and run it."""
    with get_tracer().span("portfolio.member", cat="engine", member=label) as span:
        engine = create_engine(
            engine_name, aig, options=options, property_index=property_index, **kwargs
        )
        outcome = engine.check(time_limit=time_limit)
        span.add(result=outcome.result.value)
    return outcome


class PortfolioEngine:
    """Races registered engines across processes; first verdict wins."""

    name = "portfolio"

    def __init__(
        self,
        aig: AIG,
        engines: Sequence[str] = DEFAULT_PORTFOLIO,
        options: Optional[IC3Options] = None,
        property_index: int = 0,
        jobs: Optional[int] = None,
        member_kwargs: Optional[Dict[str, Dict[str, object]]] = None,
        grace: float = 0.5,
        reduce: bool = True,
        passes: Optional[Sequence[str]] = None,
        portfolio_options: Optional[PortfolioOptions] = None,
    ):
        if not engines:
            raise ValueError("portfolio needs at least one member engine")
        canonical = [canonical_name(member) for member in engines]  # fails fast on unknowns
        self.engines = tuple(engines)
        self.options = options
        self.portfolio_options = (
            portfolio_options if portfolio_options is not None else PortfolioOptions()
        )
        self.jobs = jobs if jobs and jobs > 0 else len(self.engines)
        self.member_kwargs = dict(member_kwargs or {})
        self.grace = grace
        # Reduce once in the parent: every member races on the same shrunk
        # model (members are spawned with reduce=False), and the winning
        # witness is lifted back here.
        self._aig, self.property_index, self._reduction = prepare_model(
            aig, property_index, reduce, passes
        )
        self._plan = self._build_plan(canonical)

    # ------------------------------------------------------------------
    def _build_plan(self, canonical: Sequence[str]) -> List[_MemberPlan]:
        """Resolve labels, options and kwargs for every member.

        Duplicated engine kinds get ``name#k`` labels; every member gets a
        distinct SAT-kernel seed derived from ``PortfolioOptions.base_seed``.
        Per-member kwargs supplied by the caller are keyed by label,
        falling back to the raw engine name.
        """
        base_seed = self.portfolio_options.base_seed
        totals = Counter(canonical)
        seen: Counter = Counter()
        plan: List[_MemberPlan] = []
        for index, (member, canon) in enumerate(zip(self.engines, canonical)):
            seen[canon] += 1
            label = member if totals[canon] == 1 else f"{member}#{seen[canon]}"
            options = self.options
            if base_seed:
                options = replace(options or IC3Options(), seed=base_seed + index)
            kwargs: Dict[str, object] = {"reduce": False}
            kwargs.update(self.member_kwargs.get(label, self.member_kwargs.get(member, {})))
            plan.append(_MemberPlan(label, member, options, kwargs))
        return plan

    # ------------------------------------------------------------------
    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        """Race the members; return the first definite verdict."""
        with get_tracer().span(
            "portfolio.race", cat="engine", members=list(self.engines)
        ) as span:
            outcome = self._check_inner(time_limit)
            span.add(winner=outcome.winner, result=outcome.result.value)
        return outcome

    def _check_inner(self, time_limit: Optional[float] = None) -> CheckOutcome:
        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else None
        hard_deadline = (
            deadline + max(self.grace, 0.05) if deadline is not None else None
        )

        # Members stay in this process's group: the group kill of a
        # harness task running this race ends them too.
        supervisor = Supervisor(leader=False)
        pending: List[_MemberPlan] = list(self._plan)
        running: List[Child] = []
        unknown: List[Tuple[str, CheckOutcome]] = []
        errors: List[Tuple[str, str]] = []
        hb = get_heartbeat()
        member_states: Dict[str, str] = (
            {plan.label: "pending" for plan in self._plan} if hb.enabled else {}
        )

        def _publish_members() -> None:
            if hb.enabled:
                hb.update(engine=self.name, members=dict(member_states))

        try:
            while pending or running:
                while pending and len(running) < self.jobs:
                    plan = pending.pop(0)
                    remaining = (
                        max(0.0, deadline - time.perf_counter())
                        if deadline is not None
                        else None
                    )
                    running.append(
                        supervisor.spawn(
                            f"portfolio-{plan.label}",
                            _run_member,
                            plan.label,
                            plan.engine,
                            self._aig,
                            plan.options,
                            self.property_index,
                            remaining,
                            plan.kwargs,
                            task=plan,
                        )
                    )
                    if hb.enabled:
                        member_states[plan.label] = "running"
                        _publish_members()

                for child in supervisor.wait(running, _POLL_INTERVAL):
                    plan = child.task
                    running.remove(child)
                    kind, payload = child.receive() or (
                        "error", "member process died without reporting"
                    )
                    supervisor.reap(child)
                    if hb.enabled:
                        if kind != "ok":
                            member_states[plan.label] = "error"
                        elif payload.solved:
                            member_states[plan.label] = "winner"
                        else:
                            member_states[plan.label] = "unknown"
                        _publish_members()
                    if kind == "ok" and payload.solved:
                        payload = finish_outcome(payload, self._reduction)
                        payload.winner = plan.label
                        payload.engine = self.name
                        payload.runtime = time.perf_counter() - start
                        return payload
                    if kind == "ok":
                        unknown.append((plan.label, payload))
                    else:
                        errors.append((plan.label, payload))

                if hard_deadline is not None and time.perf_counter() > hard_deadline:
                    break
        finally:
            for child in running:
                supervisor.reap(child, kill=True)

        return self._inconclusive(start, deadline, unknown, errors)

    # ------------------------------------------------------------------
    def _inconclusive(self, start, deadline, unknown, errors) -> CheckOutcome:
        stats = IC3Stats()
        frames = 0
        for _, outcome in unknown:
            stats = stats.merge(outcome.stats)
            frames = max(frames, outcome.frames)
        if deadline is not None and time.perf_counter() > deadline:
            reason = "time limit reached"
        else:
            parts = [f"{name}: {o.reason or 'unknown'}" for name, o in unknown]
            parts += [f"{name}: {message}" for name, message in errors]
            reason = "no member reached a verdict (" + "; ".join(parts) + ")"
        return CheckOutcome(
            result=CheckResult.UNKNOWN,
            runtime=time.perf_counter() - start,
            frames=frames,
            stats=stats,
            engine=self.name,
            reason=reason,
            reduction=self._reduction.summary() if self._reduction else None,
        )


@register_engine("portfolio")
def _make_portfolio(aig: AIG, **kwargs) -> PortfolioEngine:
    return PortfolioEngine(aig, **kwargs)
