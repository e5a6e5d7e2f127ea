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
grace period.

With ``PortfolioOptions.share`` (the default) the race is *cooperative*:
the parent opens a shared-memory lemma bus (:mod:`repro.engines.lembus`),
every member publishes its newly proven frame lemmas and drains foreign
ones at its check-in points, and each import is revalidated locally
before installation — a poisoned or stale bus record can waste a SAT
call but can never flip a verdict.  Members may now repeat an engine
kind (``["ic3-pl", "ic3-pl", "bmc"]``): duplicates are auto-labelled
``name#k`` and diversified with distinct RNG seeds and configuration
jitter so that they explore different lemma sequences worth exchanging.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aiger.aig import AIG
from repro.core.options import IC3Options, LiteralOrdering
from repro.core.result import CheckOutcome, CheckResult
from repro.core.stats import IC3Stats
from repro.engines.adapters import finish_outcome, prepare_model
from repro.engines.lembus import (
    DEFAULT_CAPACITY,
    SharePolicy,
    create_bus,
    open_port,
)
from repro.engines.registry import canonical_name, create_engine, register_engine
from repro.obs.heartbeat import (
    get_heartbeat,
    maybe_install_worker_heartbeat,
    shutdown_worker_heartbeat,
)
from repro.obs.metrics import PORTFOLIO_WINS, record_engine_outcome
from repro.obs.tracer import (
    get_tracer,
    maybe_install_worker_tracer,
    shutdown_worker_tracer,
)

DEFAULT_PORTFOLIO: Tuple[str, ...] = ("ic3-pl", "bmc", "kind")

_POLL_INTERVAL = 0.05

# Engine kinds whose members publish frame lemmas onto the bus; the
# unrolling engines (bmc, kind) are import-only.
_EXPORTING_ENGINES = ("ic3", "ic3-pl")
"""How often the parent re-checks deadlines while waiting on members."""


@dataclass
class PortfolioOptions:
    """Cooperative-portfolio configuration (lemma sharing + diversification)."""

    share: bool = True
    """Exchange frame lemmas between members over the shared bus."""

    transport: str = "shm"
    """Bus transport: ``"shm"`` ring buffer, ``"queue"`` fallback
    (shm silently falls back to queues when the platform refuses it)."""

    capacity: int = DEFAULT_CAPACITY
    """Ring-buffer size in bytes (shm transport only)."""

    max_lits: int = 8
    """Quality filter: only clauses this short are worth shipping."""

    min_level: int = 2
    """Quality filter: minimum frame level before a lemma is exported."""

    base_seed: int = 1
    """Member ``i`` runs with SAT-kernel seed ``base_seed + i`` so the
    kernels branch differently and produce complementary lemmas.
    0 disables seeding entirely (all members run the deterministic
    unseeded decision order)."""

    diversify: bool = True
    """Apply per-member configuration jitter to duplicated engine kinds."""


@dataclass
class _MemberPlan:
    """One spawn slot: resolved label, engine name, options and kwargs."""

    label: str
    engine: str
    options: Optional[IC3Options]
    kwargs: Dict[str, object] = field(default_factory=dict)


_IC3_JITTER: Tuple[Dict[str, object], ...] = (
    {"literal_ordering": LiteralOrdering.ACTIVITY},
    {"literal_ordering": LiteralOrdering.REVERSE_INDEX},
    {"use_unsat_core_shrinking": False},
)
"""Option overrides cycled across duplicated IC3-kind members."""

_IC3_KWARG_JITTER: Tuple[Dict[str, object], ...] = (
    {"frame_backend": "per-frame"},
    {},
)
"""Substrate overrides cycled across duplicated IC3-kind members
(explicit portfolio-level or per-member settings still win)."""


def _run_member(
    conn, label, engine_name, aig, options, property_index, time_limit, kwargs,
    lemma_handle=None,
):
    """Subprocess body: build one member engine, run it, ship the outcome back."""
    maybe_install_worker_tracer(f"portfolio-{label}")
    maybe_install_worker_heartbeat(f"portfolio-{label}")
    port = None
    try:
        if lemma_handle is not None:
            port = open_port(lemma_handle)
            kwargs = dict(kwargs)
            kwargs["lemma_port"] = port
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "portfolio.member", cat="engine", member=label
            ) as span:
                engine = create_engine(
                    engine_name, aig, options=options, property_index=property_index, **kwargs
                )
                outcome = engine.check(time_limit=time_limit)
                span.add(result=outcome.result.value)
        else:
            engine = create_engine(
                engine_name, aig, options=options, property_index=property_index, **kwargs
            )
            outcome = engine.check(time_limit=time_limit)
        conn.send(("ok", outcome))
    except BaseException as exc:  # noqa: BLE001 - must not kill the pipe silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        if port is not None:
            port.close()
        shutdown_worker_heartbeat()
        shutdown_worker_tracer()
        conn.close()


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
        frame_backend: Optional[str] = None,
        portfolio_options: Optional[PortfolioOptions] = None,
        **_ignored,
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
        # Substrate selection applies to every member that honours it
        # (the IC3 adapters); per-member kwargs still win on conflict.
        self._common_kwargs: Dict[str, object] = {}
        if frame_backend is not None:
            self._common_kwargs["frame_backend"] = frame_backend
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
        """Resolve labels, diversification jitter and seeds for every member.

        Duplicated engine kinds get ``name#k`` labels plus cycled option
        and substrate jitter; every member gets a distinct SAT-kernel
        seed derived from ``PortfolioOptions.base_seed``.  Per-member
        kwargs supplied by the caller (keyed by label, falling back to
        the raw engine name) always win.
        """
        pf = self.portfolio_options
        totals = Counter(canonical)
        seen: Counter = Counter()
        plan: List[_MemberPlan] = []
        for index, (member, canon) in enumerate(zip(self.engines, canonical)):
            dup = seen[canon]
            seen[canon] += 1
            label = member if totals[canon] == 1 else f"{member}#{dup + 1}"
            member_options = self.options
            kwargs: Dict[str, object] = {"reduce": False}
            if pf.diversify and dup and canon in ("ic3", "ic3-pl"):
                base = member_options if member_options is not None else IC3Options()
                member_options = replace(
                    base, **_IC3_JITTER[(dup - 1) % len(_IC3_JITTER)]
                )
                kwargs.update(_IC3_KWARG_JITTER[(dup - 1) % len(_IC3_KWARG_JITTER)])
            if pf.base_seed:
                kwargs["seed"] = (
                    pf.base_seed + index if pf.diversify else pf.base_seed
                )
            kwargs.update(self._common_kwargs)
            kwargs.update(self.member_kwargs.get(label, self.member_kwargs.get(member, {})))
            plan.append(_MemberPlan(label, member, member_options, kwargs))
        return plan

    # ------------------------------------------------------------------
    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        """Race the members; return the first definite verdict."""
        tracer = get_tracer()
        if not tracer.enabled:
            outcome = self._check_inner(time_limit)
        else:
            with tracer.span(
                "portfolio.race", cat="engine", members=list(self.engines)
            ) as span:
                outcome = self._check_inner(time_limit)
                span.add(winner=outcome.winner, result=outcome.result.value)
        record_engine_outcome(outcome)
        if outcome.winner:
            PORTFOLIO_WINS.inc(member=outcome.winner)
        return outcome

    def _check_inner(self, time_limit: Optional[float] = None) -> CheckOutcome:
        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else None
        hard_deadline = (
            deadline + max(self.grace, 0.05) if deadline is not None else None
        )

        ctx = multiprocessing.get_context()
        pending: List[_MemberPlan] = list(self._plan)
        running: Dict[object, Tuple[_MemberPlan, object]] = {}  # conn -> (plan, process)
        unknown: List[Tuple[str, CheckOutcome]] = []
        errors: List[Tuple[str, str]] = []
        reports: Dict[str, IC3Stats] = {}
        hb = get_heartbeat()
        member_states: Dict[str, str] = (
            {plan.label: "pending" for plan in self._plan} if hb.enabled else {}
        )

        def _publish_members() -> None:
            if hb.enabled:
                hb.update(engine=self.name, members=dict(member_states))

        pf = self.portfolio_options
        bus = None
        # Only IC3-family members export lemmas; a bus without at least
        # one exporter would leave import-only members (BMC, k-induction)
        # listening to silence — k-induction in particular would then sit
        # in its cooperative wait instead of conceding early.
        exporters = sum(1 for plan in self._plan if plan.engine in _EXPORTING_ENGINES)
        if pf.share and len(self._plan) >= 2 and exporters >= 1:
            bus = create_bus(
                len(self._plan),
                transport=pf.transport,
                capacity=pf.capacity,
                policy=SharePolicy(max_lits=pf.max_lits, min_level=pf.min_level),
            )

        try:
            while pending or running:
                while pending and len(running) < self.jobs:
                    plan = pending.pop(0)
                    member_index = self._plan.index(plan)
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    remaining = (
                        max(0.0, deadline - time.perf_counter())
                        if deadline is not None
                        else None
                    )
                    handle = (
                        bus.port_handle(member_index) if bus is not None else None
                    )
                    proc = ctx.Process(
                        target=_run_member,
                        args=(
                            child_conn,
                            plan.label,
                            plan.engine,
                            self._aig,
                            plan.options,
                            self.property_index,
                            remaining,
                            plan.kwargs,
                            handle,
                        ),
                        daemon=True,
                        name=f"portfolio-{plan.label}",
                    )
                    proc.start()
                    child_conn.close()
                    running[parent_conn] = (plan, proc)
                    if hb.enabled:
                        member_states[plan.label] = "running"
                        _publish_members()

                ready = multiprocessing.connection.wait(
                    list(running), timeout=_POLL_INTERVAL
                )
                for conn in ready:
                    plan, proc = running.pop(conn)
                    kind, payload = self._receive(conn)
                    proc.join(timeout=1.0)
                    if hb.enabled:
                        if kind != "ok":
                            member_states[plan.label] = "error"
                        elif payload.solved:
                            member_states[plan.label] = "winner"
                        else:
                            member_states[plan.label] = "unknown"
                        _publish_members()
                    if kind == "ok":
                        reports[plan.label] = payload.stats
                    if kind == "ok" and payload.solved:
                        payload = finish_outcome(payload, self._reduction)
                        payload.winner = plan.label
                        payload.engine = self.name
                        payload.runtime = time.perf_counter() - start
                        payload.sharing = self._sharing_summary(bus, reports)
                        return payload
                    if kind == "ok":
                        unknown.append((plan.label, payload))
                    else:
                        errors.append((plan.label, payload))

                if hard_deadline is not None and time.perf_counter() > hard_deadline:
                    break
        finally:
            for conn, (plan, proc) in running.items():
                _terminate(proc)
                conn.close()
            if bus is not None:
                self._sharing = self._sharing_summary(bus, reports)
                bus.close()
                bus.unlink()
            else:
                self._sharing = None

        outcome = self._inconclusive(start, deadline, unknown, errors)
        outcome.sharing = self._sharing
        return outcome

    # ------------------------------------------------------------------
    @staticmethod
    def _receive(conn) -> Tuple[str, object]:
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            kind, payload = "error", "member process died without reporting"
        finally:
            conn.close()
        return kind, payload

    def _sharing_summary(
        self, bus, reports: Dict[str, IC3Stats]
    ) -> Optional[Dict[str, object]]:
        """Bus accounting attached to the outcome (and traced) after a race."""
        if bus is None:
            return None
        members = {
            label: {
                "lemmas_published": stats.lemmas_published,
                "lemmas_received": stats.lemmas_received,
                "lemmas_validated": stats.lemmas_validated,
                "lemmas_rejected": stats.lemmas_rejected,
                "lemmas_imported": stats.lemmas_imported,
                "bus_overflows": stats.bus_overflows,
            }
            for label, stats in reports.items()
        }
        summary = {
            "transport": bus.transport,
            "bus_published": bus.total_published(),
            "members": members,
        }
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "portfolio.share",
                cat="share",
                published=summary["bus_published"],
                members=len(members),
            )
        return summary

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


def _terminate(proc) -> None:
    """Stop a member process, escalating to SIGKILL if needed."""
    if not proc.is_alive():
        proc.join(timeout=0.1)
        return
    proc.terminate()
    proc.join(timeout=1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=1.0)


@register_engine("portfolio")
def _make_portfolio(aig: AIG, **kwargs) -> PortfolioEngine:
    return PortfolioEngine(aig, **kwargs)
