"""Pluggable model-checking engines.

This package turns the three core algorithms (IC3, BMC, k-induction) into
interchangeable :class:`~repro.engines.base.Engine` implementations behind
a string-keyed registry, and adds :class:`~repro.engines.portfolio.
PortfolioEngine`, which races members across processes and returns the
first definite verdict.

Registered kinds (see :func:`available_engines`):

============= ==========================================================
``ic3``        IC3/PDR without lemma prediction
``ic3-pl``     IC3/PDR with the paper's CTP-based lemma prediction
``bmc``        bounded model checking (finds counterexamples only)
``kind``       k-induction (alias ``k-induction``)
``portfolio``  process-parallel race of the above, first verdict wins
============= ==========================================================

Every engine checks one safety property per run (``property_index``);
``repro-check check --all-properties`` loops over a model's properties
and runs one engine per property.

Typical use::

    from repro.engines import create_engine
    from repro.benchgen import token_ring

    engine = create_engine("portfolio", token_ring(6).aig)
    print(engine.check(time_limit=10.0).summary())
"""

from repro.engines.base import Engine, EngineError
from repro.engines.registry import (
    available_engines,
    canonical_name,
    create_engine,
    register_engine,
    resolve_engine,
)
from repro.engines.adapters import BMCEngine, IC3Engine, KInductionEngine
from repro.engines.portfolio import DEFAULT_PORTFOLIO, PortfolioEngine

__all__ = [
    "Engine",
    "EngineError",
    "available_engines",
    "canonical_name",
    "create_engine",
    "register_engine",
    "resolve_engine",
    "IC3Engine",
    "BMCEngine",
    "KInductionEngine",
    "PortfolioEngine",
    "DEFAULT_PORTFOLIO",
]
