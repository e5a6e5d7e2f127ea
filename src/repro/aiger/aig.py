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


GateColumns = Tuple[Sequence[int], Sequence[int], Sequence[int]]
"""AND gates as three parallel literal columns: ``lhs``, ``rhs0``, ``rhs1``."""


def hash_ands(
    columns: GateColumns,
    lit_map: List[int],
    cache: Dict[Tuple[int, int], int],
    max_var: int,
    ands: Optional[List[AndGate]] = None,
) -> int:
    """Fold and structurally hash a gate list through a literal table.

    Each gate's operands are mapped through ``lit_map`` (indexed by
    literal, both polarities), folded and looked up in ``cache`` by the
    rule of :meth:`AIG.add_and`, in list order; the result is written
    back at ``lit_map[lhs]`` and its complement at ``lit_map[lhs ^ 1]``,
    so later gates read it.  A gate not yet in ``cache`` takes variable
    ``max_var + 1``, enters ``cache`` and, when ``ands`` is given, is
    appended to it.  Returns the new ``max_var``.

    The loop keeps to plain ints and one dict: no call per gate.
    """
    for lhs, rhs0, rhs1 in zip(*columns):
        a = lit_map[rhs0]
        b = lit_map[rhs1]
        if a == FALSE_LIT or b == FALSE_LIT or a == (b ^ 1):
            lit = FALSE_LIT
        elif a == TRUE_LIT:
            lit = b
        elif b == TRUE_LIT or a == b:
            lit = a
        else:
            key = (a, b) if a <= b else (b, a)
            lit = cache.get(key)
            if lit is None:
                max_var += 1
                lit = 2 * max_var
                cache[key] = lit
                if ands is not None:
                    ands.append(AndGate(lhs=lit, rhs0=key[1], rhs1=key[0]))
        lit_map[lhs] = lit
        lit_map[lhs ^ 1] = lit ^ 1
    return max_var


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
        """Return a literal for ``a & b`` (folded / structurally hashed).

        :func:`hash_ands` applies the same rule to a whole gate list; the
        two must stay in step.
        """
        max_var = self._max_var
        if a < 0 or b < 0 or (a >> 1) > max_var or (b >> 1) > max_var:
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

    def add_mapped_ands(self, columns: GateColumns, lit_map: List[int]) -> None:
        """Add another model's gates, read through the literal table ``lit_map``.

        ``columns`` are the gates' ``lhs``/``rhs0``/``rhs1`` literals in
        the other model, in topological order; ``lit_map`` maps each of
        that model's literals (both polarities) to a literal of this one
        and receives every gate's result (see :func:`hash_ands`).  The
        gates are folded and hashed as :meth:`add_and` would, and the new
        ones enter this AIG's hash table.
        """
        self._max_var = hash_ands(columns, lit_map, self._and_cache, self._max_var, self.ands)

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
        """Check structural well-formedness; raises :class:`AigerError`.

        Inputs, latches and AND gates must define variables up to
        :attr:`max_var`, the bound the evaluators and the writer use.
        """
        max_var = self._max_var
        limit = 2 * max_var + 2  # the literals of variables 0..max_var
        defined = bytearray(max_var + 1)  # one mark per variable
        defined[0] = 1

        def define(kind: str, lit: int) -> None:
            if lit & 1:
                raise AigerError(f"{kind} literal {lit} must be positive")
            if not 0 <= lit < limit:
                raise AigerError(f"{kind} literal {lit} is out of range for max_var {max_var}")
            defined[lit >> 1] = 1

        for lit in self.inputs:
            define("input", lit)
        for latch in self.latches:
            define("latch", latch.lit)
        for gate in self.ands:
            lhs, rhs0, rhs1 = gate.lhs, gate.rhs0, gate.rhs1
            if lhs & 1:
                raise AigerError(f"AND literal {lhs} must be positive")
            # Evaluators read the gates front to back, so an operand must
            # be defined by an input, a latch or an earlier gate.
            if (
                0 <= rhs0 < lhs < limit and 0 <= rhs1 < lhs
                and defined[rhs0 >> 1] and defined[rhs1 >> 1]
            ):
                defined[lhs >> 1] = 1
                continue
            if lhs <= rhs0 or lhs <= rhs1:
                raise AigerError(
                    f"AND gate {lhs} is not in topological order"
                )
            for rhs in (rhs0, rhs1):
                if not (0 <= rhs < limit and defined[rhs >> 1]):
                    raise AigerError(
                        f"AND gate {lhs} reads literal {rhs} before it is defined"
                    )
            define("AND", lhs)
        justice_lits = [lit for group in self.justice for lit in group]
        for lit in self.outputs + self.bads + self.constraints + justice_lits + self.fairness + [
            latch.next for latch in self.latches
        ]:
            if not (0 <= lit < limit and defined[lit >> 1]):
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

    def latch_states(
        self, input_sequence: Sequence[Dict[int, bool]], initial: Sequence[bool]
    ) -> List[List[bool]]:
        """The values of the latches entering each step, in latch order.

        ``initial`` gives every latch's value entering the first step;
        each later step's values are the next-state literals the step
        before evaluates to.  Steps as :meth:`simulate` does, without its
        per-step records, and skips the last step's evaluation, which no
        returned state needs.
        """
        next_lits = [latch.next for latch in self.latches]
        gates = self.gate_columns()
        states = [list(initial)] if input_sequence else []
        for step_inputs in input_sequence[:-1]:
            values = self._evaluate_flat(step_inputs, states[-1], gates)
            states.append([values[lit] for lit in next_lits])
        return states

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
