"""Propositional logic primitives shared by the SAT solver and IC3.

Literals are plain DIMACS-style signed integers (variable ``v >= 1``,
negation ``-v``); :class:`~repro.logic.cube.Cube` and
:class:`~repro.logic.cube.Clause` wrap immutable literal sets, and
:class:`~repro.logic.cnf.CNF` is a conjunction of clauses.
"""

from repro.logic.literal import (
    lit_var,
    lit_neg,
    lit_sign,
    lit_from_var,
    is_valid_lit,
)
from repro.logic.cube import Cube, Clause, diff
from repro.logic.cnf import CNF

__all__ = [
    "lit_var",
    "lit_neg",
    "lit_sign",
    "lit_from_var",
    "is_valid_lit",
    "Cube",
    "Clause",
    "diff",
    "CNF",
]
