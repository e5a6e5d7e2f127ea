"""The And-Inverter Graph data structure and construction API.

Literal convention (as in the AIGER format): variable ``v`` has the
positive literal ``2*v`` and the negated literal ``2*v + 1``; literal 0 is
the constant FALSE and literal 1 the constant TRUE.  Variable 0 is the
constant node; inputs, latches and AND gates each own one variable.

The builder performs constant folding and structural hashing so that
generated circuits stay compact, and offers the usual derived gates
(OR, XOR, MUX, equality, adders) needed by the synthetic benchmark
generators in :mod:`repro.benchgen`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

FALSE_LIT = 0
TRUE_LIT = 1


class AigerError(Exception):
    """Malformed AIG construction or file content."""


class AigerParseError(AigerError):
    """Malformed AIGER document (bad header, truncated or invalid section)."""


@dataclass
class Latch:
    """A state-holding element: ``lit`` is its output literal."""

    lit: int
    next: int = FALSE_LIT
    init: Optional[int] = 0  # 0, 1 or None (uninitialised)
    name: Optional[str] = None


@dataclass
class AndGate:
    """An AND gate ``lhs = rhs0 & rhs1`` (lhs is always even)."""

    lhs: int
    rhs0: int
    rhs1: int


@dataclass
class Symbol:
    """A named input/latch/output for symbol tables."""

    kind: str
    index: int
    name: str


class AIG:
    """A mutable And-Inverter Graph."""

    def __init__(self, comment: Optional[str] = None):
        self._max_var = 0
        self.inputs: List[int] = []
        self.latches: List[Latch] = []
        self.ands: List[AndGate] = []
        self.outputs: List[int] = []
        self.bads: List[int] = []
        self.constraints: List[int] = []
        self.justice: List[List[int]] = []
        self.fairness: List[int] = []
        self.comment = comment
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._input_names: Dict[int, str] = {}
        self._latch_by_lit: Dict[int, Latch] = {}

    # ------------------------------------------------------------------
    # Basic literal helpers
    # ------------------------------------------------------------------
    @property
    def max_var(self) -> int:
        """Largest variable index in use."""
        return self._max_var

    @property
    def num_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self.inputs)

    @property
    def num_latches(self) -> int:
        """Number of latches."""
        return len(self.latches)

    @property
    def num_ands(self) -> int:
        """Number of AND gates."""
        return len(self.ands)

    @staticmethod
    def lit_var(lit: int) -> int:
        """Variable index of a literal."""
        return lit >> 1

    @staticmethod
    def lit_is_negated(lit: int) -> bool:
        """True if the literal carries an inversion."""
        return bool(lit & 1)

    def _check_lit(self, lit: int) -> None:
        if lit < 0 or (lit >> 1) > self._max_var:
            raise AigerError(f"literal {lit} refers to an unknown variable")

    def negate(self, lit: int) -> int:
        """Return the complementary literal."""
        self._check_lit(lit)
        return lit ^ 1

    def _new_var(self) -> int:
        self._max_var += 1
        return self._max_var

    # ------------------------------------------------------------------
    # Structure construction
    # ------------------------------------------------------------------
    def add_input(self, name: Optional[str] = None) -> int:
        """Create a primary input; returns its (positive) literal."""
        lit = 2 * self._new_var()
        self.inputs.append(lit)
        if name is not None:
            self._input_names[lit] = name
        return lit

    def add_latch(self, init: Optional[int] = 0, name: Optional[str] = None) -> int:
        """Create a latch with reset value ``init``; returns its literal.

        The next-state function must be assigned later with
        :meth:`set_latch_next` (circuits usually need the latch literal to
        define its own next-state logic).
        """
        if init not in (0, 1, None):
            raise AigerError(f"latch init must be 0, 1 or None, got {init!r}")
        lit = 2 * self._new_var()
        latch = Latch(lit=lit, next=FALSE_LIT, init=init, name=name)
        self.latches.append(latch)
        self._latch_by_lit[lit] = latch
        return lit

    def set_latch_next(self, latch_lit: int, next_lit: int) -> None:
        """Assign the next-state function of a latch."""
        self._check_lit(next_lit)
        latch = self._latch_by_lit.get(latch_lit)
        if latch is None:
            raise AigerError(f"literal {latch_lit} is not a latch output")
        latch.next = next_lit

    def add_and(self, a: int, b: int) -> int:
        """Return a literal for ``a & b`` (folded / structurally hashed)."""
        self._check_lit(a)
        self._check_lit(b)
        # Constant folding.
        if a == FALSE_LIT or b == FALSE_LIT or a == (b ^ 1):
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT:
            return a
        if a == b:
            return a
        key = (a, b) if a <= b else (b, a)
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        lhs = 2 * self._new_var()
        self.ands.append(AndGate(lhs=lhs, rhs0=key[1], rhs1=key[0]))
        self._and_cache[key] = lhs
        return lhs

    # Derived gates -----------------------------------------------------
    def and_many(self, lits: Sequence[int]) -> int:
        """Conjunction of arbitrarily many literals (TRUE for empty input)."""
        result = TRUE_LIT
        for lit in lits:
            result = self.add_and(result, lit)
        return result

    def or_gate(self, a: int, b: int) -> int:
        """Return a literal for ``a | b``."""
        return self.negate(self.add_and(self.negate(a), self.negate(b)))

    def or_many(self, lits: Sequence[int]) -> int:
        """Disjunction of arbitrarily many literals (FALSE for empty input)."""
        result = FALSE_LIT
        for lit in lits:
            result = self.or_gate(result, lit)
        return result

    def xor_gate(self, a: int, b: int) -> int:
        """Return a literal for ``a ^ b``."""
        return self.or_gate(
            self.add_and(a, self.negate(b)), self.add_and(self.negate(a), b)
        )

    def xnor_gate(self, a: int, b: int) -> int:
        """Return a literal for ``a == b``."""
        return self.negate(self.xor_gate(a, b))

    def mux(self, sel: int, if_true: int, if_false: int) -> int:
        """Return ``if_true`` when ``sel`` else ``if_false``."""
        return self.or_gate(
            self.add_and(sel, if_true), self.add_and(self.negate(sel), if_false)
        )

    def implies_gate(self, a: int, b: int) -> int:
        """Return a literal for ``a -> b``."""
        return self.or_gate(self.negate(a), b)

    def equal_const(self, lits: Sequence[int], value: int) -> int:
        """Return a literal that is true iff the word ``lits`` equals ``value``.

        ``lits[0]`` is the least significant bit.
        """
        terms = []
        for position, lit in enumerate(lits):
            bit = (value >> position) & 1
            terms.append(lit if bit else self.negate(lit))
        return self.and_many(terms)

    def equal_words(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Return a literal that is true iff the two words are equal."""
        if len(a) != len(b):
            raise AigerError("word width mismatch in equality")
        return self.and_many([self.xnor_gate(x, y) for x, y in zip(a, b)])

    def adder(self, a: Sequence[int], b: Sequence[int], carry_in: int = FALSE_LIT) -> List[int]:
        """Ripple-carry adder; returns the sum word (same width as inputs)."""
        if len(a) != len(b):
            raise AigerError("word width mismatch in adder")
        carry = carry_in
        total: List[int] = []
        for x, y in zip(a, b):
            partial = self.xor_gate(x, y)
            total.append(self.xor_gate(partial, carry))
            carry = self.or_gate(self.add_and(x, y), self.add_and(partial, carry))
        return total

    def increment(self, word: Sequence[int]) -> List[int]:
        """Return ``word + 1`` (wrapping)."""
        zeros = [FALSE_LIT] * len(word)
        return self.adder(word, zeros, carry_in=TRUE_LIT)

    # Properties ---------------------------------------------------------
    def add_output(self, lit: int) -> None:
        """Declare a primary output."""
        self._check_lit(lit)
        self.outputs.append(lit)

    def add_bad(self, lit: int) -> None:
        """Declare a bad-state property (the safety property is ``G !bad``)."""
        self._check_lit(lit)
        self.bads.append(lit)

    def add_constraint(self, lit: int) -> None:
        """Declare an invariant constraint (assumed to hold on every step)."""
        self._check_lit(lit)
        self.constraints.append(lit)

    def add_justice(self, lits: Sequence[int]) -> int:
        """Declare a justice property; returns its index.

        A justice property is *violated* by an infinite run in which every
        one of its literals holds infinitely often (while every fairness
        constraint also holds infinitely often and every invariant
        constraint holds on each step).  Verification succeeds when no
        such run exists.
        """
        literals = list(lits)
        if not literals:
            raise AigerError("a justice property needs at least one literal")
        for lit in literals:
            self._check_lit(lit)
        self.justice.append(literals)
        return len(self.justice) - 1

    def add_fairness(self, lit: int) -> None:
        """Declare a fairness constraint (must recur in any justice violation)."""
        self._check_lit(lit)
        self.fairness.append(lit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_input(self, lit: int) -> bool:
        """True if the (positive form of the) literal is a primary input."""
        return (lit & ~1) in set(self.inputs)

    def is_latch(self, lit: int) -> bool:
        """True if the (positive form of the) literal is a latch output."""
        return (lit & ~1) in self._latch_by_lit

    def latch_of(self, lit: int) -> Latch:
        """Return the :class:`Latch` whose output literal matches ``lit``."""
        latch = self._latch_by_lit.get(lit & ~1)
        if latch is None:
            raise AigerError(f"literal {lit} is not a latch output")
        return latch

    def input_name(self, lit: int) -> Optional[str]:
        """Name of an input literal, if one was given."""
        return self._input_names.get(lit & ~1)

    def validate(self) -> None:
        """Check structural well-formedness; raises :class:`AigerError`."""
        seen_vars = {0}
        for lit in self.inputs:
            if lit & 1:
                raise AigerError(f"input literal {lit} must be positive")
            seen_vars.add(lit >> 1)
        for latch in self.latches:
            if latch.lit & 1:
                raise AigerError(f"latch literal {latch.lit} must be positive")
            seen_vars.add(latch.lit >> 1)
        for gate in self.ands:
            lhs, rhs0, rhs1 = gate.lhs, gate.rhs0, gate.rhs1
            if lhs & 1:
                raise AigerError(f"AND literal {lhs} must be positive")
            if lhs <= rhs0 or lhs <= rhs1:
                raise AigerError(
                    f"AND gate {lhs} is not in topological order"
                )
            # Evaluators read the gates front to back, so an operand must
            # be defined by an input, a latch or an earlier gate.
            if (rhs0 >> 1) not in seen_vars or (rhs1 >> 1) not in seen_vars:
                rhs = rhs0 if (rhs0 >> 1) not in seen_vars else rhs1
                raise AigerError(
                    f"AND gate {lhs} reads literal {rhs} before it is defined"
                )
            seen_vars.add(lhs >> 1)
        justice_lits = [lit for group in self.justice for lit in group]
        for lit in self.outputs + self.bads + self.constraints + justice_lits + self.fairness + [
            latch.next for latch in self.latches
        ]:
            if (lit >> 1) not in seen_vars:
                raise AigerError(f"literal {lit} refers to an undefined variable")
        for group in self.justice:
            if not group:
                raise AigerError("a justice property needs at least one literal")

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        input_sequence: Sequence[Dict[int, bool]],
        initial_latches: Optional[Dict[int, bool]] = None,
    ) -> List[Dict[str, object]]:
        """Cycle-accurate simulation.

        ``input_sequence`` is a list of per-step mappings from input literal
        to Boolean value (missing inputs default to False).
        ``initial_latches`` overrides reset values (needed for latches with
        undefined reset).  Returns one record per step with the latch
        values, the evaluated outputs/bad/constraint literals and the input
        values used.
        """
        latch_lits = [latch.lit for latch in self.latches]
        next_lits = [latch.next for latch in self.latches]
        latch_values = [
            bool(initial_latches[latch.lit])
            if initial_latches and latch.lit in initial_latches
            else bool(latch.init)
            for latch in self.latches
        ]
        gates = self.gate_columns()

        trace: List[Dict[str, object]] = []
        for step_inputs in input_sequence:
            values = self._evaluate_flat(step_inputs, latch_values, gates)
            trace.append({
                "latches": dict(zip(latch_lits, latch_values)),
                "inputs": {i: bool(step_inputs.get(i, False)) for i in self.inputs},
                "outputs": [values[lit] for lit in self.outputs],
                "bads": [values[lit] for lit in self.bads],
                "constraints": [values[lit] for lit in self.constraints],
                "justice": [
                    [values[lit] for lit in group] for group in self.justice
                ],
                "fairness": [values[lit] for lit in self.fairness],
            })
            latch_values = [values[lit] for lit in next_lits]
        return trace

    def gate_columns(self) -> Tuple[List[int], List[int], List[int]]:
        """The AND gates' ``lhs``, ``rhs0`` and ``rhs1`` literals, in order.

        Three lists of ints rather than one tuple per gate: zipping them
        allocates no tracked objects, so a wide model's evaluation does
        not drive the cyclic garbage collector.
        """
        ands = self.ands
        return (
            [gate.lhs for gate in ands],
            [gate.rhs0 for gate in ands],
            [gate.rhs1 for gate in ands],
        )

    def _evaluate_flat(
        self,
        step_inputs: Dict[int, bool],
        latch_values: Sequence[bool],
        gates: Tuple[List[int], List[int], List[int]],
    ) -> List[bool]:
        """Evaluate one step into a list indexed by literal.

        Both polarities of every variable are stored; ``latch_values``
        follows latch order.  The gates are read in list order, which
        :meth:`validate` checks is topological.
        """
        values = [False, True] * (self._max_var + 1)
        for lit in self.inputs:
            if step_inputs.get(lit, False):
                values[lit] = True
                values[lit ^ 1] = False
        for latch, value in zip(self.latches, latch_values):
            if value:
                values[latch.lit] = True
                values[latch.lit ^ 1] = False
        for lhs, rhs0, rhs1 in zip(*gates):
            if values[rhs0] and values[rhs1]:
                values[lhs] = True
                values[lhs ^ 1] = False
        return values

    def _evaluate_combinational(
        self, step_inputs: Dict[int, bool], latch_values: Dict[int, bool]
    ) -> Dict[int, bool]:
        """Evaluate every literal for one step (inputs + current latches)."""
        values = self._evaluate_flat(
            step_inputs,
            [latch_values[latch.lit] for latch in self.latches],
            self.gate_columns(),
        )
        return dict(enumerate(values))

    def __repr__(self) -> str:
        liveness = ""
        if self.justice or self.fairness:
            liveness = f", justice={len(self.justice)}, fairness={len(self.fairness)}"
        return (
            f"AIG(inputs={self.num_inputs}, latches={self.num_latches}, "
            f"ands={self.num_ands}, outputs={len(self.outputs)}, bads={len(self.bads)}"
            f"{liveness})"
        )
