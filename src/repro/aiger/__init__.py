"""And-Inverter Graph (AIG) infrastructure.

HWMCC benchmarks — the evaluation substrate of the paper — are distributed
in the AIGER format.  This package provides the AIG data structure with a
construction API (structural hashing, constant folding, derived gates such
as OR/XOR/MUX/adders), cycle-accurate simulation for counterexample
replay, and readers/writers for both the ASCII ``.aag`` and the binary
``.aig`` formats.
"""

from repro.aiger.aig import AIG, AigerError, AigerParseError, FALSE_LIT, TRUE_LIT
from repro.aiger.parser import parse_aiger, read_aiger
from repro.aiger.writer import write_aag, write_aig, to_aag_string, to_aig_bytes

__all__ = [
    "AIG",
    "AigerError",
    "AigerParseError",
    "FALSE_LIT",
    "TRUE_LIT",
    "parse_aiger",
    "read_aiger",
    "write_aag",
    "write_aig",
    "to_aag_string",
    "to_aig_bytes",
]
