"""Engine configurations evaluated by the harness.

Each configuration is one row of the paper's Table 1.  The paper compares
two independent IC3 code bases (IC3ref in C++ and RIC3 in Rust), each with
and without the proposed lemma prediction, plus the CAV'23 "i-Good lemmas"
variant and ABC's PDR.  Those exact binaries are not available here, so
every row is a differently-configured instance of this library's IC3
engine.  Each stand-in is an :class:`~repro.core.options.IC3Options`
profile that reproduces what distinguishes the original code base
(literal ordering, lifting, pushing, generalization strategy; see each
``description``), and the ``plays_role_of`` field records the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.options import IC3Options


@dataclass
class EngineConfig:
    """A named engine configuration.

    ``engine`` is a registry kind from :mod:`repro.engines` (``"ic3"``,
    ``"bmc"``, ``"kind"``, ``"portfolio"``, ...); ``options`` configures
    IC3-based engines, and BMC and k-induction read only its ``seed``;
    ``engine_kwargs`` is forwarded verbatim to the engine factory (e.g.
    BMC's ``max_depth``).
    """

    name: str
    options: Optional[IC3Options] = None
    plays_role_of: str = ""
    description: str = ""
    engine: str = "ic3"
    engine_kwargs: Dict[str, object] = field(default_factory=dict)

    @property
    def uses_prediction(self) -> bool:
        """True if this configuration has the paper's optimization enabled."""
        return self.options is not None and self.options.enable_prediction


def paper_configurations() -> List[EngineConfig]:
    """The six configurations of Table 1, in the paper's order."""
    return [
        EngineConfig(
            name="RIC3",
            options=IC3Options.profile_ic3_b(),
            plays_role_of="RIC3 (Rust IC3 by the authors)",
            description="activity-ordered MIC, no lifting, no aggressive push",
        ),
        EngineConfig(
            name="RIC3-pl",
            options=IC3Options.profile_ic3_b().with_prediction(),
            plays_role_of="RIC3 + predicting lemmas",
            description="RIC3 profile with CTP-based lemma prediction",
        ),
        EngineConfig(
            name="IC3ref",
            options=IC3Options.profile_ic3_a(),
            plays_role_of="IC3ref (Bradley's reference implementation)",
            description="index-ordered MIC, core lifting, aggressive push",
        ),
        EngineConfig(
            name="IC3ref-pl",
            options=IC3Options.profile_ic3_a().with_prediction(),
            plays_role_of="IC3ref + predicting lemmas",
            description="IC3ref profile with CTP-based lemma prediction",
        ),
        EngineConfig(
            name="IC3ref-CAV23",
            options=IC3Options.profile_cav23(),
            plays_role_of="IC3ref with i-Good lemmas (Xia et al., CAV'23)",
            description="parent-lemma-ordered generalization",
        ),
        EngineConfig(
            name="ABC-PDR",
            options=IC3Options.profile_pdr(),
            plays_role_of="PDR as implemented in ABC",
            description="CTG generalization, activity ordering, aggressive push",
        ),
    ]


def apply_seed(
    configs: Sequence[EngineConfig], seed: Optional[int]
) -> List[EngineConfig]:
    """Override the SAT-kernel RNG seed of every configuration.

    The single source of truth for the ``--seed`` override: the harness
    uses it to build the engines it runs and the CLI uses it to record
    the same configurations in the manifest.  The seed travels in the options, so a configuration without options gets
    ``IC3Options(seed=seed)``; BMC and k-induction read it from there.
    The same seed is applied to every configuration — per-run
    determinism, not portfolio diversification (the portfolio derives
    distinct per-member seeds itself, see ``PortfolioOptions.base_seed``).
    """
    if seed is None:
        return list(configs)
    return [
        replace(config, options=replace(config.options or IC3Options(), seed=seed))
        for config in configs
    ]


def prediction_pairs() -> List[Tuple[str, str]]:
    """(base, prediction) configuration name pairs used by Figures 3 and 4."""
    return [("RIC3", "RIC3-pl"), ("IC3ref", "IC3ref-pl")]


def config_by_name(name: str) -> EngineConfig:
    """Look up one of the paper configurations by name."""
    for config in paper_configurations():
        if config.name == name:
            return config
    raise KeyError(f"unknown configuration {name!r}")
