"""Adapters that put the core engines behind the uniform Engine protocol.

The concrete algorithms stay in :mod:`repro.core` (and remain importable
from there); each adapter normalizes one of them to the ``(aig, *,
options, property_index, **kwargs)`` construction and ``check(time_limit)``
call shape that the registry, the harness and the portfolio expect.
Engine-specific knobs (BMC's ``max_depth``, k-induction's ``max_k``)
become constructor keywords instead of ``check()`` arguments.  Run
settings travel only in ``options`` (:class:`~repro.core.options.IC3Options`):
the IC3 adapters read all of them, BMC and k-induction read its
SAT-kernel ``seed``.

Every adapter also runs the :mod:`repro.reduce` preprocessing pipeline at
construction time (disable with ``reduce=False``, choose passes with
``passes=[...]``): the core engine solves the reduced model, and the
adapter lifts counterexample traces and invariant certificates back to
the original AIG before returning them, so callers — including the
certificate/trace validators — never see the reduced model's variable
numbering.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.aiger.aig import AIG
from repro.core.bmc import BMC
from repro.core.ic3 import IC3
from repro.core.kinduction import KInduction
from repro.core.options import IC3Options
from repro.core.result import CheckOutcome
from repro.engines.registry import register_engine
from repro.obs.tracer import get_tracer
from repro.reduce import ReductionResult, reduce_aig


def prepare_model(
    aig: AIG,
    property_index: int = 0,
    reduce: bool = True,
    passes: Optional[Sequence[str]] = None,
):
    """Common preprocessing step of every adapter.

    Returns ``(model, model_property_index, reduction)`` where
    ``reduction`` is None when preprocessing is disabled.
    """
    if not reduce:
        return aig, property_index, None
    reduction = reduce_aig(aig, property_index=property_index, passes=passes)
    return reduction.aig, reduction.property_index, reduction


def finish_outcome(
    outcome: CheckOutcome, reduction: Optional[ReductionResult]
) -> CheckOutcome:
    """Lift witnesses back to the original model and record shrinkage."""
    if reduction is not None:
        outcome = reduction.lift_outcome(outcome)
        outcome.reduction = reduction.summary()
    return outcome


def traced_check(name, run, time_limit):
    """Run an engine's check under an ``engine.<name>`` span.

    The span records the verdict and frame count; the engine's own
    counters travel on ``outcome.stats`` (:class:`~repro.core.stats.IC3Stats`).
    """
    with get_tracer().span("engine." + name, cat="engine") as span:
        outcome = run(time_limit)
        span.add(result=outcome.result.value, frames=outcome.frames)
    return outcome


class IC3Engine:
    """IC3/PDR behind the Engine protocol (optionally with lemma prediction)."""

    def __init__(
        self,
        aig: AIG,
        options: Optional[IC3Options] = None,
        property_index: int = 0,
        name: Optional[str] = None,
        reduce: bool = True,
        passes: Optional[Sequence[str]] = None,
    ):
        self.options = options if options is not None else IC3Options()
        self.name = name or ("ic3-pl" if self.options.enable_prediction else "ic3")
        model, model_property, self.reduction = prepare_model(
            aig, property_index, reduce, passes
        )
        self._engine = IC3(model, self.options, property_index=model_property)

    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        outcome = traced_check(
            self.name, lambda limit: self._engine.check(time_limit=limit), time_limit
        )
        outcome = finish_outcome(outcome, self.reduction)
        outcome.engine = self.name
        return outcome


class BMCEngine:
    """Bounded model checking behind the Engine protocol."""

    name = "bmc"

    def __init__(
        self,
        aig: AIG,
        options: Optional[IC3Options] = None,
        property_index: int = 0,
        max_depth: int = 50,
        reduce: bool = True,
        passes: Optional[Sequence[str]] = None,
    ):
        self.max_depth = max_depth
        model, model_property, self.reduction = prepare_model(
            aig, property_index, reduce, passes
        )
        seed = (options or IC3Options()).seed
        self._engine = BMC(model, property_index=model_property, seed=seed)

    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        outcome = traced_check(
            self.name,
            lambda limit: self._engine.check(max_depth=self.max_depth, time_limit=limit),
            time_limit,
        )
        return finish_outcome(outcome, self.reduction)


class KInductionEngine:
    """k-induction behind the Engine protocol."""

    name = "kind"

    def __init__(
        self,
        aig: AIG,
        options: Optional[IC3Options] = None,
        property_index: int = 0,
        max_k: int = 20,
        reduce: bool = True,
        passes: Optional[Sequence[str]] = None,
    ):
        self.max_k = max_k
        model, model_property, self.reduction = prepare_model(
            aig, property_index, reduce, passes
        )
        seed = (options or IC3Options()).seed
        self._engine = KInduction(model, property_index=model_property, seed=seed)

    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        outcome = traced_check(
            self.name,
            lambda limit: self._engine.check(max_k=self.max_k, time_limit=limit),
            time_limit,
        )
        return finish_outcome(outcome, self.reduction)


# ----------------------------------------------------------------------
# Default registrations
# ----------------------------------------------------------------------
@register_engine("ic3")
def _make_ic3(aig: AIG, options: Optional[IC3Options] = None, **kwargs) -> IC3Engine:
    return IC3Engine(aig, options=options, name="ic3", **kwargs)


@register_engine("ic3-pl")
def _make_ic3_pl(aig: AIG, options: Optional[IC3Options] = None, **kwargs) -> IC3Engine:
    options = (options if options is not None else IC3Options()).with_prediction()
    return IC3Engine(aig, options=options, name="ic3-pl", **kwargs)


@register_engine("bmc")
def _make_bmc(aig: AIG, **kwargs) -> BMCEngine:
    return BMCEngine(aig, **kwargs)


@register_engine("kind", aliases=("k-induction",))
def _make_kind(aig: AIG, **kwargs) -> KInductionEngine:
    return KInductionEngine(aig, **kwargs)
