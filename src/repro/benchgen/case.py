"""Benchmark case description."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.aiger.aig import AIG
from repro.core.result import CheckResult


@dataclass
class BenchmarkCase:
    """One verification problem of the synthetic suite."""

    name: str
    aig: AIG
    expected: Optional[CheckResult] = None
    """Ground-truth verdict (None when genuinely unknown)."""

    family: str = ""
    """Generator family (counter, lfsr, arbiter, ...)."""

    params: Dict[str, object] = field(default_factory=dict)
    """Generator parameters, for reporting."""

    expected_depth: Optional[int] = None
    """For UNSAFE cases: length (in transitions) of a shortest counterexample."""

    def __post_init__(self) -> None:
        if not self.family:
            self.family = self.name.split("_")[0]

    @property
    def num_latches(self) -> int:
        """Number of latches in the underlying circuit."""
        return self.aig.num_latches

    def describe(self) -> str:
        """One-line description used in reports."""
        expectation = self.expected.value if self.expected else "unknown"
        return (
            f"{self.name}: {self.family} "
            f"(latches={self.aig.num_latches}, ands={self.aig.num_ands}, "
            f"expected={expectation})"
        )
