"""Statistics collected by the IC3 engine.

Besides generic counters (SAT calls, lemmas, obligations) the class tracks
the three success rates reported in Table 2 of the paper:

* ``SR_lp = N_sp / N_p`` — lemma-prediction success rate, where ``N_p`` is
  the number of SAT queries spent on predictions and ``N_sp`` the number of
  successful predictions;
* ``SR_fp = N_fp / N_g`` — how often a generalization found a parent lemma
  with a recorded push failure (a CTP to work from);
* ``SR_adv = N_sp / N_g`` — how often dropping variables was avoided
  entirely, out of all generalizations ``N_g``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional


@dataclass
class IC3Stats:
    """Counters accumulated during one IC3 run."""

    # SAT activity
    sat_calls: int = 0
    sat_time: float = 0.0
    consecution_calls: int = 0
    consecution_fallbacks: int = 0
    consecution_reuses: int = 0       # failed consecutions answered from stored witnesses
    lifting_calls: int = 0
    assumption_levels_reused: int = 0

    # Frame / lemma activity
    frames_opened: int = 0
    lemmas_added: int = 0
    lemmas_pushed: int = 0
    subsumed_lemmas: int = 0
    obligations_processed: int = 0
    bad_cubes: int = 0
    ctis: int = 0

    # Solving-substrate activity (manifest schema v3)
    lemma_clauses_added: int = 0      # physical lemma clause insertions
    lemma_clauses_removed: int = 0    # promoted/subsumed copies deleted
    solver_clauses_shared: int = 0    # placements served by an existing clause
    activation_vars_allocated: int = 0
    activation_vars_recycled: int = 0
    activation_vars_retired: int = 0

    # SAT-kernel memory-system activity (manifest schema v5); aggregated
    # over every solver the run created.
    watch_traversals: int = 0         # watch-list entries inspected in propagate
    blocker_hits: int = 0             # entries resolved from the blocker alone
    literal_pool_bytes: int = 0       # live clause-storage bytes at finalize
    arena_compactions: int = 0        # clause-storage garbage collections
    solver_removed_clauses: int = 0   # clauses lazily deleted (guarded + learnt)

    # SAT-kernel search activity (manifest schema v8); aggregated over
    # every solver the run created.
    solver_conflicts: int = 0
    solver_decisions: int = 0
    solver_propagations: int = 0

    # Generalization activity
    generalizations: int = 0          # N_g
    mic_drop_attempts: int = 0
    mic_drop_successes: int = 0
    ctg_blocked: int = 0

    # Lemma prediction activity (the paper's contribution)
    prediction_queries: int = 0       # N_p  (SAT queries spent predicting)
    prediction_successes: int = 0     # N_sp (generalizations solved by prediction)
    parent_lemma_hits: int = 0        # N_fp (generalizations that found a failed-push parent)
    parent_lemmas_found: int = 0      # parent lemmas inspected (with or without CTP)
    ctp_recorded: int = 0             # failure-push table insertions
    ctp_table_clears: int = 0
    predicted_push_parent: int = 0    # predictions that returned the parent lemma itself
    predicted_extended: int = 0       # predictions that returned parent ∪ {¬d}

    # Wall-clock breakdown (seconds)
    time_total: float = 0.0
    time_generalization: float = 0.0
    time_prediction: float = 0.0
    time_propagation: float = 0.0

    # ------------------------------------------------------------------
    # Success rates (Table 2)
    # ------------------------------------------------------------------
    @property
    def sr_lp(self) -> Optional[float]:
        """Lemma-prediction success rate ``N_sp / N_p`` (None if no predictions)."""
        if self.prediction_queries == 0:
            return None
        return self.prediction_successes / self.prediction_queries

    @property
    def sr_fp(self) -> Optional[float]:
        """Failed-push parent discovery rate ``N_fp / N_g`` (None if no generalizations)."""
        if self.generalizations == 0:
            return None
        return self.parent_lemma_hits / self.generalizations

    @property
    def sr_adv(self) -> Optional[float]:
        """Avoided-variable-dropping rate ``N_sp / N_g`` (None if no generalizations)."""
        if self.generalizations == 0:
            return None
        return self.prediction_successes / self.generalizations

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Flatten all counters and rates into a dictionary (for reports)."""
        data = asdict(self)
        data["sr_lp"] = self.sr_lp
        data["sr_fp"] = self.sr_fp
        data["sr_adv"] = self.sr_adv
        return data

    def merge(self, other: "IC3Stats") -> "IC3Stats":
        """Return a new stats object with counters summed (times added)."""
        merged = IC3Stats()
        for name in vars(self):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged
