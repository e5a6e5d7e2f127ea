"""Configuration of the IC3 engine.

The options mirror the configurations evaluated in the paper: a base IC3
(``IC3Options()``), the same engine with lemma prediction enabled
(``IC3Options.with_prediction()``), the CAV'23-style parent-ordered
generalization, a CTG-enabled variant, and an ABC-PDR-like profile.
Only settings that some configuration varies are options; what every
configuration shares (Algorithm 2's CTP-table policy, the prediction,
MIC and CTG bounds, the frame and obligation limits) is written where it
is used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

class GeneralizationStrategy(str, Enum):
    """Which inductive-generalization algorithm the engine uses."""

    BASIC = "basic"
    CTG = "ctg"
    PARENT_ORDERED = "parent-ordered"


class LiteralOrdering(str, Enum):
    """Order in which MIC tries to drop literals from a cube."""

    INDEX = "index"
    ACTIVITY = "activity"


@dataclass
class IC3Options:
    """Tunable parameters of :class:`~repro.core.ic3.IC3`."""

    # --- the paper's contribution -------------------------------------
    enable_prediction: bool = False
    """Predict candidate lemmas from CTPs before dropping variables (Alg. 2)."""

    # --- generalization --------------------------------------------------
    generalization: GeneralizationStrategy = GeneralizationStrategy.BASIC
    literal_ordering: LiteralOrdering = LiteralOrdering.INDEX

    # --- engine behaviour -------------------------------------------------
    enable_lifting: bool = True
    """Shrink the states of proof obligations with assumption cores before
    enqueuing them: each predecessor against its successor, and the bad
    state that starts a blocking round against the property.  Off on
    models with invariant constraints, whose traces must stay concrete."""

    aggressive_push: bool = True
    """After blocking, re-enqueue the obligation one level higher (IC3ref style)."""

    seed: int = 0
    """Deterministic RNG seed for the SAT kernel's randomized branching
    (see :meth:`repro.sat.arena.ArenaSolver.set_seed`).  0 disables the
    randomization entirely; any non-zero seed gives a reproducible but
    diversified decision order — the portfolio uses distinct seeds per
    member so that racing members search differently."""

    # ------------------------------------------------------------------
    # Named profiles used by the evaluation harness
    # ------------------------------------------------------------------
    def with_prediction(self) -> "IC3Options":
        """Return a copy of these options with lemma prediction enabled."""
        return replace(self, enable_prediction=True)

    @classmethod
    def profile_ic3_a(cls) -> "IC3Options":
        """Baseline engine A (plays the role of IC3ref in the paper)."""
        return cls(
            generalization=GeneralizationStrategy.BASIC,
            literal_ordering=LiteralOrdering.INDEX,
            enable_lifting=True,
        )

    @classmethod
    def profile_ic3_b(cls) -> "IC3Options":
        """Baseline engine B (plays the role of RIC3 in the paper)."""
        return cls(
            generalization=GeneralizationStrategy.BASIC,
            literal_ordering=LiteralOrdering.ACTIVITY,
            enable_lifting=False,
            aggressive_push=False,
        )

    @classmethod
    def profile_cav23(cls) -> "IC3Options":
        """Parent-lemma-ordered generalization (stands in for IC3ref-CAV23)."""
        return cls(
            generalization=GeneralizationStrategy.PARENT_ORDERED,
            literal_ordering=LiteralOrdering.INDEX,
        )

    @classmethod
    def profile_pdr(cls) -> "IC3Options":
        """ABC-PDR-like profile: CTG generalization and aggressive pushing."""
        return cls(
            generalization=GeneralizationStrategy.CTG,
            literal_ordering=LiteralOrdering.ACTIVITY,
            aggressive_push=True,
        )

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.seed < 0:
            raise ValueError("seed must be non-negative (0 disables randomization)")
