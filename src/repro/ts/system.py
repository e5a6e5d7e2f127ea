"""Transition-system encoding of an AIG.

The encoding allocates one CNF variable per AIG input, latch and AND gate
(the *current-state* copy), plus one primed variable per latch (the
*next-state* copy), and emits:

* Tseitin clauses defining every AND gate over current-state variables;
* equivalence clauses tying each primed latch variable to the latch's
  next-state function;
* unit clauses for invariant constraints (assumed every step);
* a ``bad`` literal — the property is ``G !bad``.

Variables are numbered by list position (:func:`latch_variables`), so
the variable maps, ``bad_lit`` and ``init_cube`` are built in one step
on construction; the clauses of T are encoded on the first read of
:attr:`TransitionSystem.trans`, so trace replay, which needs only the
numbering, never pays for them.  Witness lift-back needs only the latch
numbering and reads it from :func:`latch_variables` without building a
:class:`TransitionSystem`.
:meth:`TransitionSystem.cone_trans` encodes only the one-step cone of a
set of latches, in the two parts the certificate checker loads.

IC3, BMC and k-induction all consume this object; it is also the oracle
used to validate invariant certificates and counterexample traces.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set

from repro.aiger.aig import AIG, FALSE_LIT, TRUE_LIT, AndGate, Latch
from repro.logic.cube import Clause, Cube


class EncodingError(Exception):
    """Raised when an AIG cannot be encoded (e.g. no bad/output literal)."""


class PropertySelectionWarning(UserWarning):
    """The AIG declares both bads and outputs; the bad list took precedence."""


def select_bads(
    aig: AIG, use_outputs_as_bad: bool = True, warn_on_ambiguity: bool = True
) -> List[int]:
    """The safety-property literals of an AIG, with documented precedence.

    AIGER 1.9 ``B``-section bads always win; the pre-1.9 convention of
    reading outputs as bad signals is only applied when the AIG declares
    no bads at all.  When *both* sections are present (and the fallback is
    enabled) a :class:`PropertySelectionWarning` is emitted, because the
    outputs are then silently ignored as properties.  The warning fires
    once per AIG object — engines, validators and lift-back machinery
    re-encode the same model many times and would otherwise repeat it.
    """
    if aig.bads:
        if (
            aig.outputs
            and use_outputs_as_bad
            and warn_on_ambiguity
            and not getattr(aig, "_ambiguity_warned", False)
        ):
            aig._ambiguity_warned = True
            warnings.warn(
                f"the AIG declares both {len(aig.bads)} bad propert"
                f"{'y' if len(aig.bads) == 1 else 'ies'} and {len(aig.outputs)} "
                f"output(s); the bads take precedence and the outputs are not "
                f"checked (pass use_outputs_as_bad=False to silence this)",
                PropertySelectionWarning,
                stacklevel=3,
            )
        return list(aig.bads)
    if use_outputs_as_bad:
        return list(aig.outputs)
    return []


@dataclass(frozen=True)
class Cone:
    """The clauses of T that :meth:`TransitionSystem.cone_trans` keeps.

    Both parts are lists of plain literal lists.  Iterating a cone yields
    every clause, the property part first.
    """

    property: List[List[int]]
    step: List[List[int]]

    def __iter__(self) -> Iterator[List[int]]:
        return itertools.chain(self.property, self.step)


def latch_variables(aig: AIG) -> range:
    """The solver variables of ``aig``'s latches, in latch order.

    :class:`TransitionSystem` numbers variables by list position: 1 is the
    constant TRUE, then come the inputs, the latches and the AND gates,
    then the primed latches.  Witnesses speak this numbering, and callers
    that only need it (witness lift-back) read it here without building
    an encoding.
    """
    first = 2 + len(aig.inputs)
    return range(first, first + len(aig.latches))


class TransitionSystem:
    """Boolean transition system ⟨X, Y, I, T⟩ derived from an AIG.

    ``property_index`` names the bad (or output read as bad) that
    ``bad_lit`` encodes; the system keeps it as an attribute.
    """

    def __init__(
        self,
        aig: AIG,
        property_index: int = 0,
        use_outputs_as_bad: bool = True,
        warn_on_ambiguity: bool = True,
    ):
        aig.validate()
        self.aig = aig
        bads = select_bads(aig, use_outputs_as_bad, warn_on_ambiguity)
        if not bads:
            raise EncodingError("the AIG declares neither bad states nor outputs")
        if not 0 <= property_index < len(bads):
            source = "bad properties" if aig.bads else "outputs (read as bads)"
            raise EncodingError(
                f"property index {property_index} out of range: the AIG declares "
                f"{len(bads)} {source}, valid indices are 0..{len(bads) - 1}"
            )
        self.property_index = property_index
        self._bad_aig_lit = bads[property_index]

        # The numbering of :func:`latch_variables`, built in one step: the
        # lists are ascending, so model projections build cubes from them
        # without sorting, and contiguous, so they read the model through
        # the ranges.
        latch_vars = latch_variables(aig)
        self._const_true = 1
        self._input_range = range(2, latch_vars.start)
        self._latch_range = latch_vars
        self.input_vars: List[int] = list(self._input_range)
        self.latch_vars: List[int] = list(latch_vars)
        aig_vars = [
            *[lit >> 1 for lit in aig.inputs],
            *[latch.lit >> 1 for latch in aig.latches],
            *[gate.lhs >> 1 for gate in aig.ands],
        ]
        first_primed = 2 + len(aig_vars)
        self._current_of_aig_var: Dict[int, int] = dict(zip(aig_vars, range(2, first_primed)))
        if len(self._current_of_aig_var) != len(aig_vars):
            raise EncodingError(
                "the AIG's inputs, latches and AND gates do not define distinct variables"
            )

        self._primed_range = range(first_primed, first_primed + len(self.latch_vars))
        self._num_vars = self._primed_range.stop - 1
        self.primed_of: Dict[int, int] = dict(zip(self.latch_vars, self._primed_range))
        # Signed latch literal -> signed primed literal (both polarities).
        self._primed_lit: Dict[int, int] = {
            **self.primed_of,
            **{-var: -primed for var, primed in self.primed_of.items()},
        }

        self.bad_lit = self.to_solver_lit(self._bad_aig_lit)
        self.init_cube = self._build_init_cube()
        self._init_value: Dict[int, bool] = {
            abs(l): l > 0 for l in self.init_cube
        }

    # ------------------------------------------------------------------
    # Variable bookkeeping
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of solver variables allocated by the encoding."""
        return self._num_vars

    def to_solver_lit(self, aig_lit: int) -> int:
        """Translate an AIG literal to a solver literal over current vars."""
        if aig_lit == FALSE_LIT:
            return -self._const_true
        if aig_lit == TRUE_LIT:
            return self._const_true
        var = self._current_of_aig_var[aig_lit >> 1]
        return -var if aig_lit & 1 else var

    def prime_lit(self, lit: int) -> int:
        """Translate a current-state latch literal to its primed copy."""
        var = abs(lit)
        primed = self.primed_of.get(var)
        if primed is None:
            raise EncodingError(f"variable {var} is not a latch variable")
        return primed if lit > 0 else -primed

    def primed_literals(self, cube: Cube) -> List[int]:
        """The primed copies of a latch cube's literals, in the cube's order.

        A dictionary lookup per literal, for the frame layer's queries; a
        literal that is not over a latch raises ``KeyError`` (use
        :meth:`prime_lit` for the checked translation).
        """
        return list(map(self._primed_lit.__getitem__, cube.literals))

    def is_state_lit(self, lit: int) -> bool:
        """True if the literal ranges over a current-state latch variable."""
        return abs(lit) in self.primed_of

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @functools.cached_property
    def trans(self) -> List[List[int]]:
        """The transition relation T as plain literal lists, encoded on
        first read: the TRUE unit, the gates in ``aig.ands`` order, the
        next-state equivalences, then the constraint units."""
        return [
            [self._const_true],
            *self._gate_clauses(self.aig.ands),
            *self._next_state_clauses(self.aig.latches),
            *self._constraint_units(),
        ]

    def cone_trans(self, state_vars: Iterable[int]) -> Cone:
        """T restricted to the one-step cone of the latches ``state_vars``.

        The property part defines the AND gates in the fan-in of Bad and
        of the invariant constraints, plus the constraint units; the step
        part defines the other gates in the fan-in of those latches'
        next-state functions, plus their next-state equivalences.  Every
        clause of T left out of the property part (or of both parts)
        defines a gate or a primed latch that it does not mention, from
        variables it leaves free, so its models extend to models of T: a
        query over it, Bad, the constraints and current-state latches
        (with both parts, also the given latches' primed copies) is
        equisatisfiable with the same query over :attr:`trans`.
        """
        wanted = set(state_vars)
        latches = [l for l, var in zip(self.aig.latches, self.latch_vars) if var in wanted]
        gate_of = {gate.lhs >> 1: gate for gate in self.aig.ands}
        seen: Set[int] = set()

        def fan_in(roots: Iterable[int]) -> List[AndGate]:
            gates = []
            stack = [lit >> 1 for lit in roots]
            while stack:
                var = stack.pop()
                gate = gate_of.get(var)
                if gate is None or var in seen:
                    continue
                seen.add(var)
                gates.append(gate)
                stack += (gate.rhs0 >> 1, gate.rhs1 >> 1)
            return gates

        property_gates = fan_in([self._bad_aig_lit, *self.aig.constraints])
        step_gates = fan_in(latch.next for latch in latches)
        return Cone(
            property=[
                [self._const_true],
                *self._gate_clauses(property_gates),
                *self._constraint_units(),
            ],
            step=[*self._gate_clauses(step_gates), *self._next_state_clauses(latches)],
        )

    def _gate_clauses(self, gates: Sequence[AndGate]) -> List[List[int]]:
        clauses = []
        for gate in gates:
            out = self.to_solver_lit(gate.lhs)
            a = self.to_solver_lit(gate.rhs0)
            b = self.to_solver_lit(gate.rhs1)
            clauses += ([-out, a], [-out, b], [out, -a, -b])
        return clauses

    def _next_state_clauses(self, latches: Sequence[Latch]) -> List[List[int]]:
        clauses = []
        for latch in latches:
            primed = self.prime_lit(self.to_solver_lit(latch.lit))
            next_lit = self.to_solver_lit(latch.next)
            clauses += ([-primed, next_lit], [primed, -next_lit])
        return clauses

    def _constraint_units(self) -> List[List[int]]:
        return [[self.to_solver_lit(constraint)] for constraint in self.aig.constraints]

    def _build_init_cube(self) -> Cube:
        literals = []
        for latch in self.aig.latches:
            if latch.init is None:
                continue
            var = self.to_solver_lit(latch.lit)
            literals.append(var if latch.init == 1 else -var)
        return Cube(literals)

    # ------------------------------------------------------------------
    # Initial-state reasoning
    # ------------------------------------------------------------------
    def cube_intersects_init(self, cube: Cube) -> bool:
        """True if some initial state satisfies the cube.

        Because the initial condition is a cube over (a subset of) latch
        variables, this is a purely syntactic check: the cube intersects the
        initial states iff none of its literals contradicts the reset value
        of an initialised latch.
        """
        for lit in cube:
            expected = self._init_value.get(abs(lit))
            if expected is not None and (lit > 0) != expected:
                return False
        return True

    def clause_holds_on_init(self, clause: Clause) -> bool:
        """True if ``I ⇒ clause`` (the lemma excludes no initial state)."""
        return not self.cube_intersects_init(clause.negate())

    # ------------------------------------------------------------------
    # Model projection
    # ------------------------------------------------------------------
    # ``solver`` is any SAT solver with ``model_values`` (ArenaSolver,
    # Solver) whose last answer was SAT; a value of 1 is true, anything
    # else (unassigned too) reads as false.  The cubes skip re-sorting:
    # the variable ranges are ascending, and ArenaSolver reads each as one
    # slice of its model.
    def state_cube(self, solver) -> Cube:
        """The last model's latch values, as a cube over the latch variables."""
        return _cube_of(self._latch_range, solver.model_values(self._latch_range))

    def successor_cube(self, solver) -> Cube:
        """The last model's primed latch values, as a cube over the
        current-state latch variables."""
        return _cube_of(self._latch_range, solver.model_values(self._primed_range))

    def input_bits(self, solver):
        """The last model's raw input values (``solver.model_values``), for
        :meth:`inputs_of` and :meth:`input_values_of` to decode later."""
        return solver.model_values(self._input_range)

    def inputs_of(self, bits) -> Cube:
        """The cube over the input variables of :meth:`input_bits` values."""
        return _cube_of(self._input_range, bits)

    def input_values_of(self, bits) -> Dict[int, bool]:
        """AIG input literal -> value, from :meth:`input_bits` values."""
        return dict(zip(self.aig.inputs, [value == 1 for value in bits]))


def _cube_of(variables: range, values) -> Cube:
    """The cube over the ascending ``variables`` whose model values are
    ``values`` (1 true, anything else false)."""
    return Cube._from_canonical(
        tuple([var if value == 1 else -var for var, value in zip(variables, values)])
    )
