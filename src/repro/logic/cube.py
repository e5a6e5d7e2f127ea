"""Cubes, clauses and the diff set of Definition 3.1.

A *cube* is a conjunction of literals and a *clause* is a disjunction of
literals; the negation of one is the other.  Both are represented as
immutable, canonically sorted tuples of DIMACS literals with a companion
frozenset for O(1) membership tests — IC3 performs an enormous number of
subset and containment checks on them.

The public constructors validate, deduplicate and sort their input.  Hot
paths whose output is canonical by construction skip that work through
the private :meth:`_LiteralSet._from_canonical`: a projection over
ascending variables, a subsequence of a canonical tuple, or a sorted
insert into one (:meth:`Cube.without`, :meth:`Cube.extended`).

``diff(a, b)`` is the paper's Definition 3.1: the set of literals of ``a``
whose negation occurs in ``b``.  It is the workhorse of lemma prediction.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import FrozenSet, Iterable, Iterator, Tuple, TypeVar

from repro.logic.literal import lit_var


def _canonical(literals: Iterable[int]) -> Tuple[int, ...]:
    """Deduplicate and sort literals by (variable, polarity)."""
    seen = set()
    for lit in literals:
        if not isinstance(lit, int) or lit == 0:
            raise ValueError(f"invalid literal: {lit!r}")
        seen.add(lit)
    return tuple(sorted(seen, key=lambda l: (lit_var(l), l < 0)))


_Self = TypeVar("_Self", bound="_LiteralSet")


class _LiteralSet:
    """Shared implementation of immutable literal containers."""

    __slots__ = ("_lits", "_set", "_hash")

    def __init__(self, literals: Iterable[int] = ()):
        self._lits: Tuple[int, ...] = _canonical(literals)
        self._set: FrozenSet[int] = frozenset(self._lits)

    @classmethod
    def _from_canonical(cls: "type[_Self]", literals: Tuple[int, ...]) -> _Self:
        """Build from a tuple that is already in canonical order.

        Skips validation and sorting, so the caller must guarantee what
        :func:`_canonical` would produce: non-zero int literals, no
        duplicates, sorted by (variable, polarity).
        """
        self = object.__new__(cls)
        self._lits = literals
        self._set = frozenset(literals)
        return self

    def __reduce__(self):
        # The hash is left out: it is computed per process (string hashes
        # are salted), on first use.
        return type(self)._from_canonical, (self._lits,)

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(self._lits)

    def __len__(self) -> int:
        return len(self._lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self._set

    def __getitem__(self, index: int) -> int:
        return self._lits[index]

    def __hash__(self) -> int:
        # Computed on first use: most cubes are never hashed.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((type(self).__name__, self._lits))
            return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._lits == other._lits

    def __lt__(self, other: "_LiteralSet") -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._lits < other._lits

    # -- set views -----------------------------------------------------------
    @property
    def literals(self) -> Tuple[int, ...]:
        """The literals in canonical order."""
        return self._lits

    @property
    def literal_set(self) -> FrozenSet[int]:
        """The literals as a frozenset."""
        return self._set

    @property
    def variables(self) -> FrozenSet[int]:
        """The set of variables mentioned."""
        return frozenset(lit_var(l) for l in self._lits)

    def is_empty(self) -> bool:
        """True if no literals are present."""
        return not self._lits

    def is_tautological(self) -> bool:
        """True if both a literal and its negation are present.

        A tautological *clause* is trivially true; a "tautological" *cube*
        is in fact the empty (unsatisfiable) cube ⊥.
        """
        return any(-l in self._set for l in self._lits)

    def subsumes(self, other: "_LiteralSet") -> bool:
        """Return True if ``self``'s literals are a subset of ``other``'s.

        For clauses this is logical subsumption (self implies other); for
        cubes the direction reverses (other implies self, Theorem 3.4).
        """
        return self._set <= other._set

    def intersection(self, other: "_LiteralSet") -> FrozenSet[int]:
        """Literals occurring in both containers."""
        return self._set & other._set

    def __repr__(self) -> str:
        body = ", ".join(str(l) for l in self._lits)
        return f"{type(self).__name__}([{body}])"


class Cube(_LiteralSet):
    """A conjunction of literals (typically a state or a set of states)."""

    def negate(self) -> "Clause":
        """Return the clause ``¬cube``."""
        return _negated(self, Clause)

    def without(self, lit: int) -> "Cube":
        """Return a copy of the cube with ``lit`` removed (variable drop)."""
        if lit not in self._set:
            raise KeyError(f"literal {lit} not in cube")
        lits = self._lits
        index = lits.index(lit)
        return Cube._from_canonical(lits[:index] + lits[index + 1:])

    def extended(self, lit: int) -> "Cube":
        """Return a copy of the cube with ``lit`` added (Equation 6)."""
        if not isinstance(lit, int) or lit == 0:
            raise ValueError(f"invalid literal: {lit!r}")
        if -lit in self._set:
            raise ValueError(
                f"adding literal {lit} would make the cube contradictory"
            )
        if lit in self._set:
            return self
        # Neither polarity of the variable is present, so ordering by
        # variable alone finds the canonical slot.
        lits = self._lits
        index = bisect_left(list(map(abs, lits)), abs(lit))
        return Cube._from_canonical(lits[:index] + (lit,) + lits[index:])

    def implies(self, other: "Cube") -> bool:
        """Theorem 3.4: for non-⊥ cubes, ``a ⇒ b`` iff ``b ⊆ a``."""
        return other._set <= self._set

    def contradicts(self, other: "Cube") -> bool:
        """Theorem 3.2: ``a ∧ b = ⊥`` iff ``diff(a, b) ≠ ∅`` (non-⊥ inputs)."""
        return bool(diff(self, other))

    def restrict_to(self, variables: Iterable[int]) -> "Cube":
        """Keep only literals whose variable is in ``variables``."""
        keep = set(variables)
        return Cube(l for l in self._lits if lit_var(l) in keep)


class Clause(_LiteralSet):
    """A disjunction of literals (an IC3 lemma is a clause)."""

    def negate(self) -> Cube:
        """Return the cube ``¬clause``."""
        return _negated(self, Cube)

    def without(self, lit: int) -> "Clause":
        """Return a copy of the clause with ``lit`` removed."""
        if lit not in self._set:
            raise KeyError(f"literal {lit} not in clause")
        return Clause(l for l in self._lits if l != lit)

    def implies(self, other: "Clause") -> bool:
        """Clause implication by syntactic subsumption: ``a ⇒ b`` if a ⊆ b."""
        return self._set <= other._set


def _negated(literals: _LiteralSet, kind: "type[_Self]") -> _Self:
    """``literals`` with every literal negated, as a ``kind``.

    Negation keeps the canonical order unless a variable occurs in both
    polarities (its two literals would swap), so only that case sorts.
    """
    negated = tuple([-l for l in literals._lits])
    if literals.is_tautological():
        return kind(negated)
    return kind._from_canonical(negated)


def diff(a: Cube, b: Cube) -> FrozenSet[int]:
    """Definition 3.1: ``diff(a, b) = { l | l ∈ a and ¬l ∈ b }``.

    Note the asymmetry: ``diff(a, b)`` is generally different from
    ``diff(b, a)``.
    """
    b_set = b.literal_set
    return frozenset(l for l in a if -l in b_set)
