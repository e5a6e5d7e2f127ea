"""Propositional logic primitives shared by the SAT solver and IC3.

Literals are plain DIMACS-style signed integers (variable ``v >= 1``,
negation ``-v``); :class:`~repro.logic.cube.Cube` and
:class:`~repro.logic.cube.Clause` wrap immutable literal sets.  A clause
set (the transition relation, a frame's lemmas) is a list of literal
lists or of :class:`~repro.logic.cube.Clause` objects.
"""

from repro.logic.cube import Cube, Clause, diff

__all__ = ["Cube", "Clause", "diff"]
