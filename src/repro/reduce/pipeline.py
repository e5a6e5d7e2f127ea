"""The reduction pass manager.

A :class:`ReductionPipeline` is an ordered list of named passes (names
may repeat — the default pipeline runs ``coi`` both first and last).
Running it yields a :class:`ReductionResult`: the reduced AIG, the
per-pass :class:`~repro.reduce.base.ReductionInfo` shrinkage records and
a composed :class:`~repro.reduce.recon.ReconstructionMap` for witness
lift-back.  New passes plug in with :func:`register_pass`, mirroring the
engine registry::

    from repro.reduce import register_pass, ReductionPass

    @register_pass("retime")
    class RetimingPass(ReductionPass):
        ...

Engines apply :data:`DEFAULT_PASSES` unless constructed with
``reduce=False`` or an explicit ``passes=[...]`` list; the CLI exposes
the same knobs as ``--no-reduce`` and ``--passes``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type, Union

from repro.aiger.aig import AIG
from repro.core.result import CheckOutcome
from repro.obs.tracer import get_tracer
from repro.reduce.base import PassResult, ReductionError, ReductionInfo, ReductionPass
from repro.reduce.coi import ConeOfInfluencePass
from repro.reduce.latchmerge import EquivalentLatchPass
from repro.reduce.recon import ReconstructionMap
from repro.reduce.ternary import TernaryConstantPass

_PASS_REGISTRY: Dict[str, Type[ReductionPass]] = {}

DEFAULT_PASSES = ("coi", "ternary", "merge", "coi")
"""The pipeline engines apply by default.

COI first cuts the model down before the more expensive analyses run;
ternary sweeping and latch merging then substitute constants and
representatives; the final COI collects the logic those substitutions
orphaned.  Every pass rebuilds the model, folding and hashing its gates
in one loop (:func:`~repro.reduce.base.rebuild_aig`: structural sharing,
constant folding and dead-gate removal included), so the model is fully
hashed from the first COI on.
"""


def register_pass(name: str, pass_class: Optional[Type[ReductionPass]] = None):
    """Register a reduction pass under ``name`` (usable as a decorator)."""

    def _register(cls: Type[ReductionPass]) -> Type[ReductionPass]:
        if name in _PASS_REGISTRY:
            raise ReductionError(f"reduction pass {name!r} is already registered")
        _PASS_REGISTRY[name] = cls
        return cls

    if pass_class is not None:
        return _register(pass_class)
    return _register


def available_passes() -> List[str]:
    """Sorted names of all registered reduction passes."""
    return sorted(_PASS_REGISTRY)


def resolve_pass(name: str) -> ReductionPass:
    """Instantiate a registered pass by name; raises ``KeyError`` if unknown."""
    try:
        return _PASS_REGISTRY[name]()
    except KeyError:
        known = ", ".join(available_passes())
        raise KeyError(f"unknown reduction pass {name!r} (available: {known})") from None


register_pass("coi", ConeOfInfluencePass)
register_pass("ternary", TernaryConstantPass)
register_pass("merge", EquivalentLatchPass)


@dataclass
class ReductionResult:
    """Everything one pipeline run produced."""

    original: AIG
    aig: AIG
    property_index: int
    """Index of the checked property in the *reduced* model's bad list."""

    recon: ReconstructionMap
    infos: List[ReductionInfo] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def reduced(self) -> bool:
        """True if any pass removed anything."""
        return any(info.reduced for info in self.infos)

    def lift_outcome(self, outcome: CheckOutcome) -> CheckOutcome:
        """Lift whatever witness an outcome carries back to the original."""
        return self.recon.lift_outcome(outcome)

    def summary(self) -> Dict[str, object]:
        """JSON-serializable description for manifests and reports."""
        return {
            "passes": [info.pass_name for info in self.infos],
            "original": {
                "inputs": self.original.num_inputs,
                "latches": self.original.num_latches,
                "ands": self.original.num_ands,
            },
            "reduced": {
                "inputs": self.aig.num_inputs,
                "latches": self.aig.num_latches,
                "ands": self.aig.num_ands,
            },
            "per_pass": [info.as_dict() for info in self.infos],
            "elapsed": round(self.elapsed, 6),
        }


class ReductionPipeline:
    """An ordered, composable sequence of reduction passes."""

    def __init__(self, passes: Union[Sequence[str], Sequence[ReductionPass], None] = None):
        names = DEFAULT_PASSES if passes is None else passes
        self.passes: List[ReductionPass] = [
            item if isinstance(item, ReductionPass) else resolve_pass(item)
            for item in names
        ]
        if not self.passes:
            raise ReductionError("a reduction pipeline needs at least one pass")

    def run(self, aig: AIG, property_index: int = 0) -> ReductionResult:
        """Apply every pass in order and compose the reconstruction map."""
        start = time.perf_counter()
        results: List[PassResult] = []
        current = aig
        current_property = property_index
        tracer = get_tracer()
        for reduction_pass in self.passes:
            with tracer.span(
                "reduce." + reduction_pass.name,
                cat="reduce",
                latches=current.num_latches,
                ands=current.num_ands,
            ) as span:
                result = reduction_pass.run(current, current_property)
                span.add(
                    latches_after=result.aig.num_latches,
                    ands_after=result.aig.num_ands,
                )
            results.append(result)
            current = result.aig
            current_property = result.property_index
        recon = ReconstructionMap.from_pass_results(aig, results, property_index)
        return ReductionResult(
            original=aig,
            aig=current,
            property_index=current_property,
            recon=recon,
            infos=[result.info for result in results],
            elapsed=time.perf_counter() - start,
        )


def reduce_aig(
    aig: AIG,
    property_index: int = 0,
    passes: Union[Sequence[str], None] = None,
) -> ReductionResult:
    """Run a reduction pipeline (the default one unless ``passes`` is given)."""
    return ReductionPipeline(passes).run(aig, property_index=property_index)
