"""Unit and property tests for cubes, clauses and the diff set.

The property tests exercise the paper's Theorems 3.2-3.4 and the
construction of Equation 6 directly on the data structures.
"""

import pytest
from hypothesis import given, strategies as st

from repro.logic import Cube, Clause, diff
from repro.sat import ArenaSolver


def _cube_strategy(max_var=8, min_size=0, max_size=6):
    """Non-contradictory cubes: one polarity per variable."""
    return st.dictionaries(
        st.integers(min_value=1, max_value=max_var),
        st.booleans(),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda d: Cube(v if pol else -v for v, pol in d.items()))


class TestCubeBasics:
    def test_canonical_order_and_dedup(self):
        assert Cube([3, -1, 3, 2]).literals == (-1, 2, 3)

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Cube([1, 0])

    def test_len_and_contains(self):
        cube = Cube([1, -2, 3])
        assert len(cube) == 3
        assert -2 in cube
        assert 2 not in cube

    def test_equality_and_hash(self):
        assert Cube([1, 2]) == Cube([2, 1])
        assert hash(Cube([1, 2])) == hash(Cube([2, 1]))
        assert Cube([1, 2]) != Cube([1, -2])

    def test_cube_and_clause_are_distinct_types(self):
        assert Cube([1]) != Clause([1])

    def test_empty_cube(self):
        cube = Cube()
        assert cube.is_empty()
        assert len(cube) == 0

    def test_variables(self):
        assert Cube([1, -5, 3]).variables == {1, 3, 5}

    def test_repr_round(self):
        assert "Cube" in repr(Cube([1, -2]))

    def test_ordering_comparable(self):
        assert sorted([Cube([2]), Cube([1])]) == [Cube([1]), Cube([2])]


@pytest.mark.parametrize("kind", [Cube, Clause])
class TestLiteralValidation:
    """Literals are non-zero ints; both containers check what they are given."""

    @pytest.mark.parametrize("bad", [0, 1.5, "1", None])
    def test_invalid_literal_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="invalid literal"):
            kind([1, bad])

    def test_variable_and_polarity_order(self, kind):
        # Sorted by variable; a variable's positive literal comes first.
        assert kind([-3, 2, 3, -1, 2]).literals == (-1, 2, 3, -3)
        assert kind([-3, 2, 3, -1]).variables == {1, 2, 3}


class TestCubeOperations:
    def test_negate_gives_clause(self):
        clause = Cube([1, -2]).negate()
        assert isinstance(clause, Clause)
        assert set(clause) == {-1, 2}

    def test_double_negation(self):
        cube = Cube([1, -2, 3])
        assert cube.negate().negate() == cube

    def test_without(self):
        assert Cube([1, 2, 3]).without(2) == Cube([1, 3])

    def test_without_missing_literal(self):
        with pytest.raises(KeyError):
            Cube([1, 2]).without(3)

    def test_extended(self):
        assert Cube([1, 2]).extended(3) == Cube([1, 2, 3])

    def test_extended_existing_is_noop(self):
        assert Cube([1, 2]).extended(2) == Cube([1, 2])

    def test_extended_contradiction_rejected(self):
        with pytest.raises(ValueError):
            Cube([1, 2]).extended(-1)

    def test_is_tautological_detects_contradiction(self):
        assert Cube([1, -1]).is_tautological()
        assert not Cube([1, 2]).is_tautological()


class TestClause:
    def test_negate_gives_cube(self):
        cube = Clause([1, -2]).negate()
        assert isinstance(cube, Cube)
        assert set(cube) == {-1, 2}


class TestTheorem34:
    """Theorem 3.4: for non-empty cubes, a ⇒ b iff b ⊆ a."""

    @given(_cube_strategy(max_var=5), _cube_strategy(max_var=5))
    def test_implication_matches_subset(self, a, b):
        def holds(cube, bits):
            return all(((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in cube)

        implies = all(holds(b, bits) for bits in range(32) if holds(a, bits))
        assert implies == (b.literal_set <= a.literal_set)


class TestDiffSet:
    """Definition 3.1 and Theorems 3.2 / 3.3."""

    def test_basic(self):
        assert diff(Cube([1, 2, -3]), Cube([-1, 2, 3])) == {1, -3}

    def test_asymmetry(self):
        a, b = Cube([1, 2]), Cube([-1, -2])
        assert diff(a, b) == {1, 2}
        assert diff(b, a) == {-1, -2}

    def test_empty_when_no_conflict(self):
        assert diff(Cube([1, 2]), Cube([2, 3])) == frozenset()

    @given(_cube_strategy(), _cube_strategy())
    def test_theorem_3_2(self, a, b):
        """a ∧ b = ⊥ iff diff(a, b) ≠ ∅ (for non-contradictory cubes)."""
        conjunction_literals = set(a) | set(b)
        contradictory = any(-l in conjunction_literals for l in conjunction_literals)
        assert bool(diff(a, b)) == contradictory

    @given(_cube_strategy(), _cube_strategy(), _cube_strategy())
    def test_theorem_3_3(self, a, b, c):
        """If diff(a,b) ≠ ∅ and c ∩ diff(a,b) ≠ ∅ then diff(c,b) ≠ ∅."""
        d = diff(a, b)
        if d and (c.literal_set & d):
            assert diff(c, b)

    @given(_cube_strategy(max_var=10, min_size=1), st.data())
    def test_equation_6_properties(self, b, data):
        """A c3 built per Equation 6 satisfies Equations 2, 3 and 4."""
        # Build a CTP state t that disagrees with b on at least one literal.
        flip = data.draw(st.sampled_from(sorted(b.literals)))
        t = Cube([-flip] + [l for l in b if l != flip])
        # Parent cube c2: any strict subset of b that leaves out the flipped literal.
        c2 = Cube([l for l in b if l != flip][: max(0, len(b) - 2)])
        d_set = diff(b, t)
        assert d_set  # Equation 1
        literal = data.draw(st.sampled_from(sorted(d_set)))
        c3 = c2.extended(literal)
        assert diff(c3, t)                      # Equation 2: c3 ∧ t = ⊥
        assert c3.literal_set <= b.literal_set  # Equation 3: b ⊨ c3
        assert c2.literal_set <= c3.literal_set  # Equation 4: c3 ⊨ c2


def _literal_lists(max_var=8, max_size=8):
    """Arbitrary literal lists: repeats and both polarities allowed."""
    return st.lists(
        st.integers(min_value=-max_var, max_value=max_var).filter(bool),
        max_size=max_size,
    )


def _assert_same_as_constructed(fast, literals):
    """``fast`` is indistinguishable from the validating constructor's result."""
    slow = type(fast)(literals)
    assert fast.literals == slow.literals
    assert fast.literal_set == slow.literal_set
    assert hash(fast) == hash(slow)
    assert fast == slow and not fast != slow
    assert not fast < slow and not slow < fast
    for other in (type(fast)([]), type(fast)([1]), type(fast)([-1, 2])):
        assert (fast < other) == (slow < other)
        assert (other < fast) == (other < slow)


class TestPreSortedPaths:
    """Every path that skips sorting builds exactly what ``Cube(...)`` builds."""

    @given(
        st.lists(st.integers(min_value=1, max_value=12), unique=True, max_size=8),
        st.data(),
    )
    def test_model_projection(self, variables, data):
        variables = sorted(variables)
        fixed = {v: data.draw(st.booleans()) for v in variables}
        solver = ArenaSolver()
        solver.ensure_var(12)
        for var, value in fixed.items():
            solver.add_clause([var if value else -var])
        assert solver.solve()
        projected = solver.model_literals(variables)
        cube = Cube._from_canonical(projected)
        _assert_same_as_constructed(cube, [v if fixed[v] else -v for v in variables])

    @given(_literal_lists(), st.data())
    def test_subsequence(self, literals, data):
        canonical = Cube(literals).literals
        kept = tuple(l for l in canonical if data.draw(st.booleans()))
        _assert_same_as_constructed(Cube._from_canonical(kept), kept)

    @given(_literal_lists(), st.data())
    def test_without(self, literals, data):
        cube = Cube(literals)
        if not cube.literals:
            return
        lit = data.draw(st.sampled_from(cube.literals))
        _assert_same_as_constructed(
            cube.without(lit), [l for l in cube.literals if l != lit]
        )

    @given(_literal_lists(), st.integers(min_value=-10, max_value=10).filter(bool))
    def test_extended(self, literals, lit):
        cube = Cube(literals)
        if -lit in cube:
            with pytest.raises(ValueError, match="contradictory"):
                cube.extended(lit)
            return
        _assert_same_as_constructed(cube.extended(lit), literals + [lit])

    @given(_literal_lists())
    def test_extended_with_present_literal(self, literals):
        cube = Cube(literals)
        for lit in cube.literals:
            if -lit not in cube:
                _assert_same_as_constructed(cube.extended(lit), literals)

    @given(_literal_lists())
    def test_negate(self, literals):
        negated = [-l for l in literals]
        _assert_same_as_constructed(Cube(literals).negate(), negated)
        _assert_same_as_constructed(Clause(literals).negate(), negated)

    def test_extended_rejects_invalid_literal(self):
        with pytest.raises(ValueError, match="invalid literal"):
            Cube([1]).extended(0)
