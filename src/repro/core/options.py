"""Configuration of the IC3 engine.

The options mirror the configurations evaluated in the paper: a base IC3
(``IC3Options()``), the same engine with lemma prediction enabled
(``IC3Options.with_prediction()``), the CAV'23-style parent-ordered
generalization, a CTG-enabled variant, and an ABC-PDR-like profile.
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
    REVERSE_INDEX = "reverse-index"
    ACTIVITY = "activity"


@dataclass
class IC3Options:
    """Tunable parameters of :class:`~repro.core.ic3.IC3`."""

    # --- the paper's contribution -------------------------------------
    enable_prediction: bool = False
    """Predict candidate lemmas from CTPs before dropping variables (Alg. 2)."""

    clear_ctp_before_propagation: bool = True
    """Clear the failure-push table before each propagation phase (Alg. 2 l.44)."""

    refine_diff_set: bool = True
    """On a failed prediction, intersect the diff set with the new CTP (Alg. 2 l.27)."""

    max_prediction_candidates: int = 8
    """Upper bound on SAT queries spent per generalization on predictions."""

    # --- generalization --------------------------------------------------
    generalization: GeneralizationStrategy = GeneralizationStrategy.BASIC
    literal_ordering: LiteralOrdering = LiteralOrdering.INDEX
    use_unsat_core_shrinking: bool = True
    """Shrink cubes with the assumption core of successful consecution calls."""

    mic_max_rounds: int = 1
    """How many full passes MIC makes over the cube literals."""

    ctg_depth: int = 1
    """Recursion depth for CTG handling (only with the CTG strategy)."""

    max_ctgs: int = 3
    """How many counterexamples-to-generalization to block per literal drop."""

    # --- engine behaviour -------------------------------------------------
    enable_lifting: bool = True
    """Shrink predecessor states with assumption cores before enqueuing them."""

    aggressive_push: bool = True
    """After blocking, re-enqueue the obligation one level higher (IC3ref style)."""

    max_frames: int = 10_000
    """Give up (UNKNOWN) after this many frames."""

    max_obligations: int = 1_000_000
    """Give up (UNKNOWN) after this many proof obligations."""

    frame_backend: str = "monolithic"
    """Frame-management substrate: ``"monolithic"`` keeps one incremental
    solver with activation-literal frame selection; ``"per-frame"`` is the
    classic one-solver-per-frame baseline."""

    solver_rebuild_interval: int = 400
    """Per-frame backend only: rebuild a frame solver after this many
    garbage clauses (temporary activation tombstones + subsumed lemmas)."""

    check_predicted_lemmas: bool = False
    """Assert the Section 3.2 invariants (t ⊭ c3, b ⊨ c3, c2 ⊆ c3) on every prediction."""

    verbose: int = 0
    """0 = silent, 1 = per-frame progress, 2 = per-obligation detail."""

    seed: int = 0
    """Deterministic RNG seed for the SAT kernel's randomized branching
    (see :meth:`repro.sat.arena.ArenaSolver.set_seed`).  0 disables the
    randomization entirely; any non-zero seed gives a reproducible but
    diversified decision order — the portfolio uses distinct seeds per
    member so cooperative lemma sharing has value."""

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
        if self.max_prediction_candidates < 1:
            raise ValueError("max_prediction_candidates must be at least 1")
        if self.mic_max_rounds < 1:
            raise ValueError("mic_max_rounds must be at least 1")
        if self.ctg_depth < 0 or self.max_ctgs < 0:
            raise ValueError("CTG parameters must be non-negative")
        if self.max_frames < 1:
            raise ValueError("max_frames must be at least 1")
        if self.solver_rebuild_interval < 1:
            raise ValueError("solver_rebuild_interval must be at least 1")
        # Imported lazily: frames imports this module at load time.
        from repro.core.frames import available_frame_backends

        if self.frame_backend not in available_frame_backends():
            raise ValueError(
                f"frame_backend must be one of "
                f"{', '.join(available_frame_backends())}, "
                f"got {self.frame_backend!r}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative (0 disables randomization)")
