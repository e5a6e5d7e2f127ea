"""Pass-managed circuit reduction with witness lift-back.

Every SAT query a model-checking engine issues pays for circuit size, so
the engines in :mod:`repro.engines` shrink their input model through a
:class:`ReductionPipeline` before solving (opt out with ``reduce=False``
or pick passes with ``passes=[...]``).  The registered passes:

=========== ==========================================================
``coi``       cone of influence: drop logic the property can't observe
``ternary``   sweep latches proven constant by ternary simulation
``merge``     merge sequentially equivalent (or anti-equivalent) latches
=========== ==========================================================

Reduction is witness-preserving: the pipeline's
:class:`~repro.reduce.recon.ReconstructionMap` lifts counterexample
traces and inductive-invariant certificates produced on the reduced
model back to the original AIG, where they pass the stock
:func:`~repro.core.invariant.check_counterexample` /
:func:`~repro.core.invariant.check_certificate` validators unchanged.

Typical use::

    from repro.reduce import reduce_aig

    result = reduce_aig(aig)            # default pipeline
    outcome = IC3(result.aig).check()   # solve the reduced model
    outcome = result.lift_outcome(outcome)      # speak the original's language
"""

from repro.reduce.base import (
    LatchFate,
    PassResult,
    ReductionError,
    ReductionInfo,
    ReductionPass,
    rebuild_aig,
)
from repro.reduce.coi import ConeOfInfluencePass
from repro.reduce.latchmerge import EquivalentLatchPass, equivalent_latch_classes
from repro.reduce.recon import ReconstructionMap
from repro.reduce.ternary import TernaryConstantPass, ternary_constants
from repro.reduce.pipeline import (
    DEFAULT_PASSES,
    ReductionPipeline,
    ReductionResult,
    available_passes,
    reduce_aig,
    register_pass,
    resolve_pass,
)

__all__ = [
    "ReductionError",
    "ReductionInfo",
    "ReductionPass",
    "PassResult",
    "LatchFate",
    "rebuild_aig",
    "ConeOfInfluencePass",
    "TernaryConstantPass",
    "ternary_constants",
    "EquivalentLatchPass",
    "equivalent_latch_classes",
    "ReconstructionMap",
    "ReductionPipeline",
    "ReductionResult",
    "DEFAULT_PASSES",
    "available_passes",
    "register_pass",
    "resolve_pass",
    "reduce_aig",
]
