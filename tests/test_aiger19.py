"""AIGER 1.9 justice/fairness I/O: round-trips, parity, strict errors."""

import pytest

from repro.aiger.aig import AIG, AigerError, AigerParseError
from repro.aiger.parser import parse_aiger
from repro.aiger.writer import to_aag_string, to_aig_bytes


def _model_with_justice() -> AIG:
    aig = AIG(comment="justice fixture")
    go = aig.add_input("go")
    x = aig.add_latch(init=0, name="x")
    y = aig.add_latch(init=1, name="y")
    aig.set_latch_next(x, aig.or_gate(x, go))
    aig.set_latch_next(y, aig.xor_gate(y, x))
    aig.add_output(aig.add_and(x, y))
    aig.add_bad(aig.add_and(x, aig.negate(y)))
    aig.add_constraint(aig.negate(aig.add_and(x, go)))
    aig.add_justice([x, aig.negate(y)])
    aig.add_justice([y])
    aig.add_fairness(aig.negate(x))
    aig.validate()
    return aig


class TestJusticeConstruction:
    def test_add_justice_returns_index(self):
        aig = AIG()
        x = aig.add_latch(init=0)
        aig.set_latch_next(x, x)
        assert aig.add_justice([x]) == 0
        assert aig.add_justice([aig.negate(x)]) == 1
        assert aig.justice == [[x], [x ^ 1]]

    def test_empty_justice_rejected(self):
        aig = AIG()
        with pytest.raises(AigerError):
            aig.add_justice([])

    def test_unknown_literal_rejected(self):
        aig = AIG()
        with pytest.raises(AigerError):
            aig.add_justice([42])
        with pytest.raises(AigerError):
            aig.add_fairness(42)

    def test_simulate_records_justice_and_fairness(self):
        aig = _model_with_justice()
        records = aig.simulate([{aig.inputs[0]: True}] * 3)
        for record in records:
            assert len(record["justice"]) == 2
            assert len(record["justice"][0]) == 2
            assert len(record["fairness"]) == 1


class TestAsciiRoundTrip:
    def test_justice_and_fairness_survive(self):
        aig = _model_with_justice()
        again = parse_aiger(to_aag_string(aig))
        assert again.justice == aig.justice
        assert again.fairness == aig.fairness
        assert again.bads == aig.bads
        assert again.constraints == aig.constraints

    def test_header_counts_trimmed(self):
        aig = AIG()
        x = aig.add_latch(init=0)
        aig.set_latch_next(x, x)
        aig.add_justice([x])
        header = to_aag_string(aig).splitlines()[0].split()
        # aag M I L O A B C J (F trimmed, B/C zero-padded up to J)
        assert header == ["aag", "1", "0", "1", "0", "0", "0", "0", "1"]

    def test_double_roundtrip_is_stable(self):
        aig = _model_with_justice()
        once = to_aag_string(parse_aiger(to_aag_string(aig)))
        twice = to_aag_string(parse_aiger(once))
        assert once == twice


def _model_with_shape(justice_sizes, fairness):
    """A free-running 3-latch model with the given 1.9 sections."""
    aig = AIG(comment="shape fixture")
    go = aig.add_input("go")
    latches = [aig.add_latch(init=i % 2) for i in range(3)]
    for index, latch in enumerate(latches):
        aig.set_latch_next(latch, aig.xor_gate(latches[index - 1], go))
    literals = latches + [aig.negate(latch) for latch in latches] + [go]
    for group, size in enumerate(justice_sizes):
        aig.add_justice([literals[(group + k) % len(literals)] for k in range(size)])
    for k in range(fairness):
        aig.add_fairness(literals[-1 - k])
    aig.validate()
    return aig


SHAPES = pytest.mark.parametrize(
    "justice_sizes, fairness",
    [((1,), 0), ((3,), 1), ((2, 1), 2), ((1, 4, 2), 0), ((), 2)],
    ids=["one", "wide-fair", "two-fair", "three", "fairness-only"],
)


class TestSectionShapes:
    @SHAPES
    def test_ascii_round_trip_is_exact(self, justice_sizes, fairness):
        aig = _model_with_shape(justice_sizes, fairness)
        again = parse_aiger(to_aag_string(aig))
        assert again.justice == aig.justice
        assert again.fairness == aig.fairness
        header = to_aag_string(aig).splitlines()[0].split()
        counts = [int(field) for field in header[6:]]
        assert counts[2:] == [len(justice_sizes), fairness][: len(counts) - 2]

    @SHAPES
    def test_binary_round_trip_keeps_the_behaviour(self, justice_sizes, fairness):
        aig = _model_with_shape(justice_sizes, fairness)
        again = parse_aiger(to_aig_bytes(aig))
        assert [len(group) for group in again.justice] == list(justice_sizes)
        assert len(again.fairness) == fairness
        inputs = [{aig.inputs[0]: step % 3 == 0} for step in range(5)]
        inputs_again = [{again.inputs[0]: step % 3 == 0} for step in range(5)]
        for a, b in zip(aig.simulate(inputs), again.simulate(inputs_again)):
            assert a["justice"] == b["justice"]
            assert a["fairness"] == b["fairness"]


class TestBinaryRoundTrip:
    def test_justice_and_fairness_survive(self):
        aig = _model_with_justice()
        again = parse_aiger(to_aig_bytes(aig))
        assert len(again.justice) == 2
        assert [len(group) for group in again.justice] == [2, 1]
        assert len(again.fairness) == 1

    def test_ascii_and_binary_agree_behaviourally(self):
        aig = _model_with_justice()
        from_ascii = parse_aiger(to_aag_string(aig))
        from_binary = parse_aiger(to_aig_bytes(aig))
        inputs = [{from_ascii.inputs[0]: step % 2 == 0} for step in range(6)]
        inputs_b = [{from_binary.inputs[0]: step % 2 == 0} for step in range(6)]
        records_a = from_ascii.simulate(inputs)
        records_b = from_binary.simulate(inputs_b)
        for a, b in zip(records_a, records_b):
            assert a["justice"] == b["justice"]
            assert a["fairness"] == b["fairness"]
            assert a["bads"] == b["bads"]
            assert a["constraints"] == b["constraints"]


class TestStrictParsing:
    def test_truncated_justice_sizes_rejected(self):
        text = "aag 1 0 1 0 0 0 0 1\n2 2\n"
        with pytest.raises(AigerParseError):
            parse_aiger(text)

    def test_truncated_justice_literals_rejected(self):
        # One justice property of size 2, but only one literal present.
        text = "aag 1 0 1 0 0 0 0 1\n2 2\n2\n3\n"
        with pytest.raises(AigerParseError):
            parse_aiger(text)

    def test_truncated_fairness_rejected(self):
        text = "aag 1 0 1 0 0 0 0 0 1\n2 2\n"
        with pytest.raises(AigerParseError):
            parse_aiger(text)

    def test_non_numeric_justice_size_rejected(self):
        text = "aag 1 0 1 0 0 0 0 1\n2 2\nbogus\n2\n"
        with pytest.raises(AigerParseError):
            parse_aiger(text)

    def test_zero_justice_size_rejected(self):
        text = "aag 1 0 1 0 0 0 0 1\n2 2\n0\n"
        with pytest.raises(AigerParseError):
            parse_aiger(text)

    def test_out_of_range_literal_rejected(self):
        text = "aag 1 0 1 0 0 0 0 1\n2 2\n1\n99\n"
        with pytest.raises(AigerParseError):
            parse_aiger(text)

    def test_too_many_header_fields_rejected(self):
        with pytest.raises(AigerParseError):
            parse_aiger("aag 0 0 0 0 0 0 0 0 0 0\n")

    def test_binary_header_mvar_mismatch_rejected(self):
        with pytest.raises(AigerParseError):
            parse_aiger(b"aig 5 1 1 0 1\n")

    def test_truncated_binary_justice_rejected(self):
        aig = _model_with_justice()
        data = to_aig_bytes(aig)
        # Cut inside the textual sections before the AND bytes.
        with pytest.raises(AigerParseError):
            parse_aiger(data[:30])

    def test_parse_error_is_aiger_error(self):
        # Callers that caught AigerError keep working.
        assert issubclass(AigerParseError, AigerError)
