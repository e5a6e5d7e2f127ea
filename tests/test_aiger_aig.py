"""Tests for AIG construction, derived gates and simulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aiger import AIG, AigerError, FALSE_LIT, TRUE_LIT, parse_aiger


class TestConstruction:
    def test_inputs_and_latches_get_even_literals(self):
        aig = AIG()
        assert aig.add_input() == 2
        assert aig.add_latch() == 4
        assert aig.num_inputs == 1
        assert aig.num_latches == 1
        assert aig.max_var == 2

    def test_negation(self):
        aig = AIG()
        lit = aig.add_input()
        assert aig.negate(lit) == lit + 1
        assert aig.negate(aig.negate(lit)) == lit

    def test_negate_unknown_literal_rejected(self):
        with pytest.raises(AigerError):
            AIG().negate(100)

    def test_latch_init_values(self):
        aig = AIG()
        l0 = aig.add_latch(init=0)
        l1 = aig.add_latch(init=1)
        lx = aig.add_latch(init=None)
        assert aig.latch_of(l0).init == 0
        assert aig.latch_of(l1).init == 1
        assert aig.latch_of(lx).init is None

    def test_invalid_latch_init_rejected(self):
        with pytest.raises(AigerError):
            AIG().add_latch(init=2)

    def test_set_latch_next_requires_latch(self):
        aig = AIG()
        i = aig.add_input()
        with pytest.raises(AigerError):
            aig.set_latch_next(i, TRUE_LIT)

    def test_input_name_and_latch_of(self):
        aig = AIG()
        i = aig.add_input("a")
        l = aig.add_latch()
        assert aig.input_name(i) == "a"
        assert aig.latch_of(l).lit == l
        with pytest.raises(AigerError):
            aig.latch_of(i)

    def test_validate_passes_for_wellformed(self):
        aig = AIG()
        i = aig.add_input()
        l = aig.add_latch()
        aig.set_latch_next(l, aig.add_and(i, l))
        aig.add_bad(l)
        aig.validate()  # must not raise

    def test_validate_rejects_dangling_reference(self):
        aig = AIG()
        aig.add_latch()
        aig.outputs.append(999)
        with pytest.raises(AigerError):
            aig.validate()

    def test_repr_mentions_counts(self):
        aig = AIG()
        aig.add_input()
        assert "inputs=1" in repr(aig)


class TestAndGateFolding:
    def test_constant_folding(self):
        aig = AIG()
        a = aig.add_input()
        assert aig.add_and(a, FALSE_LIT) == FALSE_LIT
        assert aig.add_and(FALSE_LIT, a) == FALSE_LIT
        assert aig.add_and(a, TRUE_LIT) == a
        assert aig.add_and(TRUE_LIT, a) == a
        assert aig.add_and(a, a) == a
        assert aig.add_and(a, aig.negate(a)) == FALSE_LIT
        assert aig.num_ands == 0

    def test_structural_hashing(self):
        aig = AIG()
        a, b = aig.add_input(), aig.add_input()
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(b, a)
        assert g1 == g2
        assert aig.num_ands == 1

    def test_and_ordering_invariant(self):
        aig = AIG()
        a, b = aig.add_input(), aig.add_input()
        gate_lit = aig.add_and(a, b)
        gate = aig.ands[0]
        assert gate.lhs == gate_lit
        assert gate.lhs > gate.rhs0 >= gate.rhs1


def _simulate_value(aig, lit, inputs):
    """Evaluate a combinational literal for a single step."""
    return aig.simulate([inputs])[0]


class TestDerivedGates:
    def _check_truth_table(self, build, expected):
        """``build(aig, a, b) -> lit``; expected maps (a, b) -> bool."""
        aig = AIG()
        a, b = aig.add_input(), aig.add_input()
        out = build(aig, a, b)
        aig.add_output(out)
        for (va, vb), want in expected.items():
            record = aig.simulate([{a: va, b: vb}])[0]
            assert record["outputs"][0] == want, (va, vb)

    def test_or_gate(self):
        self._check_truth_table(
            lambda g, a, b: g.or_gate(a, b),
            {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): True},
        )

    def test_xor_gate(self):
        self._check_truth_table(
            lambda g, a, b: g.xor_gate(a, b),
            {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): False},
        )

    def test_xnor_gate(self):
        self._check_truth_table(
            lambda g, a, b: g.xnor_gate(a, b),
            {(0, 0): True, (0, 1): False, (1, 0): False, (1, 1): True},
        )

    def test_mux(self):
        aig = AIG()
        sel, x, y = aig.add_input(), aig.add_input(), aig.add_input()
        aig.add_output(aig.mux(sel, x, y))
        for vs, vx, vy in [(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)]:
            record = aig.simulate([{sel: vs, x: vx, y: vy}])[0]
            assert record["outputs"][0] == bool(vx if vs else vy)

    def test_and_many_empty_is_true(self):
        aig = AIG()
        assert aig.and_many([]) == TRUE_LIT

    def test_or_many_empty_is_false(self):
        aig = AIG()
        assert aig.or_many([]) == FALSE_LIT

    def test_equal_const(self):
        aig = AIG()
        word = [aig.add_input() for _ in range(3)]
        aig.add_output(aig.equal_const(word, 5))
        for value in range(8):
            inputs = {word[i]: bool((value >> i) & 1) for i in range(3)}
            record = aig.simulate([inputs])[0]
            assert record["outputs"][0] == (value == 5)

    def test_equal_words(self):
        aig = AIG()
        a = [aig.add_input() for _ in range(2)]
        b = [aig.add_input() for _ in range(2)]
        aig.add_output(aig.equal_words(a, b))
        for va in range(4):
            for vb in range(4):
                inputs = {a[i]: bool((va >> i) & 1) for i in range(2)}
                inputs.update({b[i]: bool((vb >> i) & 1) for i in range(2)})
                record = aig.simulate([inputs])[0]
                assert record["outputs"][0] == (va == vb)

    def test_equal_words_width_mismatch(self):
        aig = AIG()
        with pytest.raises(AigerError):
            aig.equal_words([aig.add_input()], [])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    def test_adder_matches_integer_addition(self, x, y):
        aig = AIG()
        a = [aig.add_input() for _ in range(4)]
        b = [aig.add_input() for _ in range(4)]
        total = aig.adder(a, b)
        for bit in total:
            aig.add_output(bit)
        inputs = {a[i]: bool((x >> i) & 1) for i in range(4)}
        inputs.update({b[i]: bool((y >> i) & 1) for i in range(4)})
        record = aig.simulate([inputs])[0]
        value = sum(1 << i for i, v in enumerate(record["outputs"]) if v)
        assert value == (x + y) % 16

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=15))
    def test_increment(self, x):
        aig = AIG()
        a = [aig.add_input() for _ in range(4)]
        for bit in aig.increment(a):
            aig.add_output(bit)
        inputs = {a[i]: bool((x >> i) & 1) for i in range(4)}
        record = aig.simulate([inputs])[0]
        value = sum(1 << i for i, v in enumerate(record["outputs"]) if v)
        assert value == (x + 1) % 16


class TestSimulation:
    def test_toggle_latch(self):
        aig = AIG()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, aig.negate(latch))
        aig.add_output(latch)
        trace = aig.simulate([{}] * 4)
        assert [r["outputs"][0] for r in trace] == [False, True, False, True]

    def test_initial_latch_override(self):
        aig = AIG()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, latch)
        aig.add_output(latch)
        trace = aig.simulate([{}, {}], initial_latches={latch: True})
        assert [r["outputs"][0] for r in trace] == [True, True]

    def test_input_driven_latch(self):
        aig = AIG()
        inp = aig.add_input()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, inp)
        aig.add_output(latch)
        trace = aig.simulate([{inp: True}, {inp: False}, {inp: False}])
        assert [r["outputs"][0] for r in trace] == [False, True, False]

    def test_bad_and_constraint_signals_reported(self):
        aig = AIG()
        latch = aig.add_latch(init=1)
        aig.set_latch_next(latch, latch)
        aig.add_bad(latch)
        aig.add_constraint(aig.negate(latch))
        record = aig.simulate([{}])[0]
        assert record["bads"] == [True]
        assert record["constraints"] == [False]

    def test_missing_inputs_default_to_false(self):
        aig = AIG()
        inp = aig.add_input()
        aig.add_output(inp)
        assert aig.simulate([{}])[0]["outputs"][0] is False


class TestDuplicateDefinitions:
    """An ASCII model may not define one variable twice."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("aag 1 1 1 1 0\n2\n2 3\n2\n", "latch literal 2 defines variable 1 a second time"),
            ("aag 2 2 0 1 0\n2\n2\n2\n", "input literal 2 defines variable 1 a second time"),
            ("aag 1 0 2 1 0\n2 3\n2 2\n2\n", "latch literal 2 defines variable 1 a second time"),
            ("aag 3 2 0 1 2\n2\n4\n6\n6 2 4\n6 3 5\n", "AND output literal 6 defines variable 3"),
            ("aag 2 1 0 1 1\n2\n2\n2 0 1\n", "AND output literal 2 defines variable 1"),
            ("aag 2 1 1 1 1\n2\n4 2\n4\n4 2 3\n", "AND output literal 4 defines variable 2"),
            ("aag 1 0 1 1 0\n0 1\n0\n", "latch literal 0 defines variable 0"),
        ],
        ids=[
            "input and latch",
            "two inputs",
            "two latches",
            "two ANDs",
            "input and AND",
            "latch and AND",
            "latch and the constant",
        ],
    )
    def test_second_definition_rejected(self, text, message):
        with pytest.raises(AigerError, match=message):
            parse_aiger(text)

    def test_interleaved_distinct_definitions_accepted(self):
        aig = parse_aiger("aag 5 2 1 0 2 1\n4\n6\n2 8\n10\n8 6 4\n10 8 2\n")
        assert aig.inputs == [4, 6]
        assert [latch.lit for latch in aig.latches] == [2]
        aig.validate()


# bad = ¬x ∧ x (gate 6 reads gate 4, listed after it): constantly 0.
AND_LINES_OUT_OF_ORDER = "aag 3 1 0 0 2 1\n2\n6\n6 5 2\n4 2 2\n"


class TestAndGateOrder:
    """Evaluators read the AND gates front to back, so the list must be
    topologically ordered."""

    def test_ascii_and_lines_in_any_order_are_sorted(self):
        aig = parse_aiger(AND_LINES_OUT_OF_ORDER)
        assert [gate.lhs for gate in aig.ands] == [4, 6]
        aig.validate()
        records = aig.simulate([{2: False}, {2: True}])
        assert [record["bads"] for record in records] == [[False], [False]]

    def test_gate_read_before_its_definition_rejected(self):
        aig = AIG()
        x, y, z = aig.add_input(), aig.add_input(), aig.add_input()
        first = aig.add_and(x, y)
        second = aig.add_and(aig.negate(first), z)
        aig.add_bad(second)
        aig.ands.reverse()
        with pytest.raises(AigerError, match=f"AND gate {second} reads literal {first ^ 1} "):
            aig.validate()

    def test_gate_reading_an_undefined_variable_rejected(self):
        aig = parse_aiger("aag 3 1 0 0 1 1\n2\n6\n6 5 2\n")
        with pytest.raises(AigerError, match="AND gate 6 reads literal 5 before it is defined"):
            aig.validate()
