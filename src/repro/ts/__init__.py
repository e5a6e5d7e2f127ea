"""Symbolic transition systems.

This package turns an :class:`~repro.aiger.AIG` into the Boolean
transition system ⟨X, Y, I, T⟩ used by the model-checking algorithms:
CNF variables for current-state latches, inputs, internal gates and primed
next-state latches, a Tseitin-encoded transition relation, the initial-state
cube and the bad-state (negated property) literal.  It also provides the
time-frame unroller used by BMC and k-induction.
"""

from repro.ts.system import (
    EncodingError,
    PropertySelectionWarning,
    TransitionSystem,
    select_bads,
)
from repro.ts.unroll import Unroller

__all__ = [
    "TransitionSystem",
    "EncodingError",
    "PropertySelectionWarning",
    "select_bads",
    "Unroller",
]
