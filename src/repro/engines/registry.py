"""String-keyed engine registry.

The registry maps engine kind names (``"ic3"``, ``"ic3-pl"``, ``"bmc"``,
``"kind"``, ``"portfolio"``) to factories that build a ready-to-run
:class:`~repro.engines.base.Engine` from an AIG.  The CLI ``--engine``
flag, the harness' :class:`~repro.harness.configs.EngineConfig.engine`
field and the portfolio's member list are all resolved through it, so a
new engine becomes available everywhere by registering one factory::

    from repro.engines import register_engine

    @register_engine("my-engine", aliases=("mine",))
    def _make_my_engine(aig, options=None, property_index=0, **kwargs):
        return MyEngine(aig, property_index=property_index)

Factories must accept ``(aig, *, options=None, property_index=0,
**kwargs)``; this keeps one uniform construction path for heterogeneous
engines.  A keyword that the kind does not take raises ``TypeError``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.aiger.aig import AIG
from repro.engines.base import Engine, EngineError

EngineFactory = Callable[..., Engine]

_REGISTRY: Dict[str, EngineFactory] = {}
_ALIASES: Dict[str, str] = {}


def register_engine(
    name: str,
    factory: Optional[EngineFactory] = None,
    *,
    aliases: tuple = (),
    overwrite: bool = False,
):
    """Register an engine factory under ``name`` (usable as a decorator)."""

    def _register(fn: EngineFactory) -> EngineFactory:
        if not overwrite and (name in _REGISTRY or name in _ALIASES):
            raise EngineError(f"engine {name!r} is already registered")
        _REGISTRY[name] = fn
        _ALIASES.pop(name, None)
        for alias in aliases:
            if not overwrite and (alias in _REGISTRY or alias in _ALIASES):
                raise EngineError(f"engine alias {alias!r} is already registered")
            _ALIASES[alias] = name
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def resolve_engine(name: str) -> EngineFactory:
    """Look up a factory by name or alias; raises ``KeyError`` if unknown."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(sorted(available_engines()))
        raise KeyError(f"unknown engine {name!r} (available: {known})") from None


def create_engine(name: str, aig: AIG, **kwargs) -> Engine:
    """Build a ready-to-run engine of the given kind for ``aig``."""
    return resolve_engine(name)(aig, **kwargs)


def available_engines(include_aliases: bool = False) -> List[str]:
    """Sorted names of all registered engine kinds."""
    names = set(_REGISTRY)
    if include_aliases:
        names.update(_ALIASES)
    return sorted(names)


def canonical_name(name: str) -> str:
    """Resolve an alias to its canonical engine name (identity otherwise)."""
    resolve_engine(name)  # raises KeyError on unknown names
    return _ALIASES.get(name, name)
