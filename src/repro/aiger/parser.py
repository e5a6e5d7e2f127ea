"""AIGER readers for the ASCII (``.aag``) and binary (``.aig``) formats.

The parser implements the full AIGER 1.9 specification as used by
HWMCC-style files: the ``M I L O A B C J F`` header, latch reset values,
invariant constraints, justice properties (a list of sizes followed by the
concatenated literal lists), fairness constraints, the delta-encoded
binary AND section, symbol tables and comments.

Malformed documents raise :class:`~repro.aiger.aig.AigerParseError` (a
subclass of :class:`~repro.aiger.aig.AigerError`) with a description of
the offending section — a truncated or corrupted 1.9 extension section is
always rejected, never silently dropped, and so is an ASCII document that
defines one variable twice (as two of input, latch and AND output).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.aiger.aig import AIG, AigerError, AigerParseError, Latch, AndGate

_HEADER_FIELDS = ("M", "I", "L", "O", "A", "B", "C", "J", "F")


def read_aiger(path: Union[str, Path]) -> AIG:
    """Read an AIGER file; the format is chosen by the header magic."""
    data = Path(path).read_bytes()
    return parse_aiger(data)


def parse_aiger(data: Union[str, bytes]) -> AIG:
    """Parse AIGER content given as text or bytes."""
    if isinstance(data, str):
        data = data.encode("ascii")
    if data.startswith(b"aag"):
        return _parse_ascii(data.decode("ascii"))
    if data.startswith(b"aig"):
        return _parse_binary(data)
    raise AigerParseError("not an AIGER document (missing 'aag'/'aig' magic)")


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _parse_header(line: str) -> Tuple[str, List[int]]:
    parts = line.split()
    if not parts or parts[0] not in ("aag", "aig"):
        raise AigerParseError(f"malformed AIGER header: {line!r}")
    if len(parts) < 6:
        raise AigerParseError(f"AIGER header needs at least M I L O A: {line!r}")
    if len(parts) > 1 + len(_HEADER_FIELDS):
        raise AigerParseError(
            f"AIGER header has more than the {len(_HEADER_FIELDS)} fields "
            f"{' '.join(_HEADER_FIELDS)}: {line!r}"
        )
    try:
        numbers = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise AigerParseError(f"non-numeric AIGER header field in {line!r}") from exc
    if any(n < 0 for n in numbers):
        raise AigerParseError(f"negative AIGER header field in {line!r}")
    numbers += [0] * (len(_HEADER_FIELDS) - len(numbers))
    return parts[0], numbers


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise AigerParseError(f"non-numeric {what}: {text!r}") from exc


def _first_field(line: str, what: str) -> str:
    fields = line.split()
    if not fields:
        raise AigerParseError(f"blank line where {what} was expected")
    return fields[0]


def _parse_lit(text: str, max_var: int, what: str) -> int:
    lit = _parse_int(text, what)
    if lit < 0 or (lit >> 1) > max_var:
        raise AigerParseError(
            f"{what} {lit} is out of range for maximum variable index {max_var}"
        )
    return lit


def _read_justice_and_fairness(
    aig: AIG, next_line, num_justice: int, num_fairness: int
) -> None:
    """Read the J and F sections (identical text layout in both formats).

    The justice section lists the size of each justice property first,
    then the concatenated literal lists, one literal per line.
    """
    sizes: List[int] = []
    for index in range(num_justice):
        size = _parse_int(
            _first_field(next_line(f"size of justice property {index}"), f"size of justice property {index}"),
            f"size of justice property {index}",
        )
        if size <= 0:
            raise AigerParseError(
                f"justice property {index} declares invalid size {size}"
            )
        sizes.append(size)
    for index, size in enumerate(sizes):
        group = [
            _parse_lit(
                _first_field(next_line(f"literal of justice property {index}"), f"literal of justice property {index}"),
                aig.max_var,
                f"justice literal (property {index})",
            )
            for _ in range(size)
        ]
        aig.justice.append(group)
    for index in range(num_fairness):
        aig.fairness.append(
            _parse_lit(
                _first_field(next_line(f"fairness constraint {index}"), f"fairness constraint {index}"),
                aig.max_var,
                "fairness literal",
            )
        )


# ----------------------------------------------------------------------
# ASCII format
# ----------------------------------------------------------------------
def _parse_ascii(text: str) -> AIG:
    lines = text.splitlines()
    if not lines:
        raise AigerParseError("empty AIGER document")
    magic, header = _parse_header(lines[0])
    if magic != "aag":
        raise AigerParseError("ASCII parser invoked on binary content")
    (
        max_var,
        num_inputs,
        num_latches,
        num_outputs,
        num_ands,
        num_bads,
        num_constraints,
        num_justice,
        num_fairness,
    ) = header

    aig = AIG()
    aig._max_var = max_var  # variables are allocated by the file itself

    cursor = 1

    def next_line(what: str = "line") -> str:
        nonlocal cursor
        if cursor >= len(lines):
            raise AigerParseError(f"unexpected end of AIGER document (expected {what})")
        line = lines[cursor]
        cursor += 1
        return line

    # Variable -> what defines it.  The binary format defines variables
    # implicitly, one each; here every input, latch and AND names its own.
    defined: Dict[int, str] = {0: "the constant"}

    def define(lit: int, what: str) -> None:
        var = lit >> 1
        if var in defined:
            raise AigerParseError(
                f"{what} {lit} defines variable {var} a second time "
                f"(already defined by {defined[var]})"
            )
        defined[var] = f"{what} {lit}"

    for _ in range(num_inputs):
        lit = _parse_lit(_first_field(next_line("input"), "input"), max_var, "input literal")
        if lit & 1 or lit == 0:
            raise AigerParseError(f"invalid input literal {lit}")
        define(lit, "input literal")
        aig.inputs.append(lit)

    for _ in range(num_latches):
        fields = next_line("latch").split()
        if len(fields) < 2:
            raise AigerParseError(f"malformed latch line: {fields!r}")
        lit = _parse_lit(fields[0], max_var, "latch literal")
        nxt = _parse_lit(fields[1], max_var, "latch next-state literal")
        define(lit, "latch literal")
        init: Optional[int] = 0
        if len(fields) >= 3:
            raw = _parse_int(fields[2], "latch reset value")
            if raw == lit:
                init = None
            elif raw in (0, 1):
                init = raw
            else:
                raise AigerParseError(f"invalid latch reset value {raw}")
        latch = Latch(lit=lit, next=nxt, init=init)
        aig.latches.append(latch)
        aig._latch_by_lit[lit] = latch

    for _ in range(num_outputs):
        aig.outputs.append(
            _parse_lit(_first_field(next_line("output"), "output"), max_var, "output literal")
        )
    for _ in range(num_bads):
        aig.bads.append(
            _parse_lit(_first_field(next_line("bad property"), "bad property"), max_var, "bad literal")
        )
    for _ in range(num_constraints):
        aig.constraints.append(
            _parse_lit(
                _first_field(next_line("invariant constraint"), "invariant constraint"),
                max_var,
                "constraint literal",
            )
        )
    _read_justice_and_fairness(aig, next_line, num_justice, num_fairness)

    for _ in range(num_ands):
        fields = next_line("AND gate").split()
        if len(fields) < 3:
            raise AigerParseError(f"malformed AND line: {fields!r}")
        lhs = _parse_lit(fields[0], max_var, "AND output literal")
        rhs0 = _parse_lit(fields[1], max_var, "AND operand literal")
        rhs1 = _parse_lit(fields[2], max_var, "AND operand literal")
        define(lhs, "AND output literal")
        aig.ands.append(AndGate(lhs=lhs, rhs0=rhs0, rhs1=rhs1))
    # The ASCII format lists AND gates in any order.  Every gate's output
    # exceeds its operands (``AIG.validate``), so ascending outputs are a
    # topological order: evaluators read the gates front to back.
    aig.ands.sort(key=lambda gate: gate.lhs)

    _parse_symbols_and_comment(aig, lines[cursor:])
    return aig


def _parse_symbols_and_comment(aig: AIG, lines: List[str]) -> None:
    comment_lines: List[str] = []
    in_comment = False
    for line in lines:
        if in_comment:
            comment_lines.append(line)
            continue
        if line.startswith("c") and (len(line) == 1 or not line[1].isdigit()):
            in_comment = True
            continue
        if not line.strip():
            continue
        kind = line[0]
        if kind not in "ilobcjf":
            continue
        try:
            index_str, name = line[1:].split(" ", 1)
            index = int(index_str)
        except ValueError:
            continue
        if kind == "i" and index < len(aig.inputs):
            aig._input_names[aig.inputs[index]] = name
        elif kind == "l" and index < len(aig.latches):
            aig.latches[index].name = name
    if comment_lines:
        aig.comment = "\n".join(comment_lines)


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------
def _parse_binary(data: bytes) -> AIG:
    try:
        newline = data.index(b"\n")
    except ValueError:
        raise AigerParseError("binary AIGER document has no header line") from None
    magic, header = _parse_header(data[:newline].decode("ascii", errors="replace"))
    if magic != "aig":
        raise AigerParseError("binary parser invoked on ASCII content")
    (
        max_var,
        num_inputs,
        num_latches,
        num_outputs,
        num_ands,
        num_bads,
        num_constraints,
        num_justice,
        num_fairness,
    ) = header
    if max_var != num_inputs + num_latches + num_ands:
        raise AigerParseError(
            f"binary AIGER header M={max_var} must equal "
            f"I+L+A={num_inputs + num_latches + num_ands}"
        )

    aig = AIG()
    aig._max_var = max_var
    # In the binary format literals are implicit: inputs are 2..2I,
    # latches are 2(I+1)..2(I+L).
    aig.inputs = [2 * (i + 1) for i in range(num_inputs)]

    cursor = newline + 1

    def next_line(what: str = "line") -> str:
        nonlocal cursor
        try:
            end = data.index(b"\n", cursor)
        except ValueError:
            raise AigerParseError(
                f"unexpected end of AIGER document (expected {what})"
            ) from None
        line = data[cursor:end].decode("ascii", errors="replace")
        cursor = end + 1
        return line

    for index in range(num_latches):
        fields = next_line("latch").split()
        if not fields:
            raise AigerParseError(f"malformed latch line for latch {index}")
        lit = 2 * (num_inputs + index + 1)
        nxt = _parse_lit(fields[0], max_var, "latch next-state literal")
        init: Optional[int] = 0
        if len(fields) >= 2:
            raw = _parse_int(fields[1], "latch reset value")
            if raw == lit:
                init = None
            elif raw in (0, 1):
                init = raw
            else:
                raise AigerParseError(f"invalid latch reset value {raw}")
        latch = Latch(lit=lit, next=nxt, init=init)
        aig.latches.append(latch)
        aig._latch_by_lit[lit] = latch
    for _ in range(num_outputs):
        aig.outputs.append(
            _parse_lit(_first_field(next_line("output"), "output"), max_var, "output literal")
        )
    for _ in range(num_bads):
        aig.bads.append(
            _parse_lit(_first_field(next_line("bad property"), "bad property"), max_var, "bad literal")
        )
    for _ in range(num_constraints):
        aig.constraints.append(
            _parse_lit(
                _first_field(next_line("invariant constraint"), "invariant constraint"),
                max_var,
                "constraint literal",
            )
        )
    _read_justice_and_fairness(aig, next_line, num_justice, num_fairness)

    # Delta-encoded AND gates.
    for index in range(num_ands):
        lhs = 2 * (num_inputs + num_latches + index + 1)
        delta0, cursor = _decode_number(data, cursor)
        delta1, cursor = _decode_number(data, cursor)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0:
            raise AigerParseError(f"binary AND gate {lhs} decodes to negative literal")
        aig.ands.append(AndGate(lhs=lhs, rhs0=rhs0, rhs1=rhs1))

    remainder = data[cursor:].decode("ascii", errors="replace").splitlines()
    _parse_symbols_and_comment(aig, remainder)
    return aig


def _decode_number(data: bytes, cursor: int) -> Tuple[int, int]:
    """Decode one LEB128-style number of the binary AND section."""
    value = 0
    shift = 0
    while True:
        if cursor >= len(data):
            raise AigerParseError("truncated binary AND section")
        byte = data[cursor]
        cursor += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, cursor
        shift += 7


# Backwards-compatible alias: callers that caught AigerError keep working.
__all__ = ["read_aiger", "parse_aiger", "AigerError", "AigerParseError"]
