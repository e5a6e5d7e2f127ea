"""Table generation (Table 1 and Table 2 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.result import CheckResult
from repro.harness.runner import SuiteResult


@dataclass
class Table:
    """A simple column-oriented table with text and CSV rendering."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, values: Sequence[object]) -> None:
        """Append one row (must match the number of columns)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def to_text(self) -> str:
        """Render as an aligned plain-text table."""
        cells = [self.columns] + [[_format_cell(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.columns))]
        lines = [self.title, ""]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render as CSV (comma separated, no quoting of commas needed here)."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines)

    def column(self, name: str) -> List[object]:
        """All values of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if value is None:
        return "-"
    return str(value)


# ----------------------------------------------------------------------
# Table 1: Summary of Results
# ----------------------------------------------------------------------
def summary_table(suite_result: SuiteResult) -> Table:
    """Solved / Safe / Unsafe counts per configuration (paper Table 1).

    Two extra columns not in the paper — total PAR-1 time and wrong
    results — make the reproduction easier to sanity-check.
    """
    table = Table(
        title="Table 1: Summary of Results",
        columns=["Configuration", "Solved", "Safe", "Unsafe", "Time(PAR1)", "Wrong"],
    )
    for config_name in suite_result.configs():
        results = suite_result.by_config(config_name)
        solved = [r for r in results if r.solved]
        safe = sum(1 for r in solved if r.result == CheckResult.SAFE)
        unsafe = sum(1 for r in solved if r.result == CheckResult.UNSAFE)
        total_time = sum(r.penalized_runtime for r in results)
        wrong = sum(1 for r in results if not r.correct)
        table.add_row([config_name, len(solved), safe, unsafe, total_time, wrong])
    return table


# ----------------------------------------------------------------------
# Table 2: Average Success Rates
# ----------------------------------------------------------------------
def success_rate_table(
    suite_result: SuiteResult, config_names: Optional[Sequence[str]] = None
) -> Table:
    """Average SR_lp / SR_fp / SR_adv per prediction-enabled configuration.

    As in the paper, the averages are taken over the cases for which the
    rate is defined (a case with no generalizations contributes nothing).
    """
    if config_names is None:
        config_names = [
            name
            for name in suite_result.configs()
            if any(r.stats.prediction_queries for r in suite_result.by_config(name))
        ]
    table = Table(
        title="Table 2: Average Success Rates",
        columns=["Configuration", "Avg SR_lp", "Avg SR_fp", "Avg SR_adv", "Cases"],
    )
    for config_name in config_names:
        results = suite_result.by_config(config_name)
        sr_lp = _average([r.stats.sr_lp for r in results])
        sr_fp = _average([r.stats.sr_fp for r in results])
        sr_adv = _average([r.stats.sr_adv for r in results])
        counted = sum(1 for r in results if r.stats.generalizations > 0)
        table.add_row(
            [
                config_name,
                _percent(sr_lp),
                _percent(sr_fp),
                _percent(sr_adv),
                counted,
            ]
        )
    return table


def _average(values: List[Optional[float]]) -> Optional[float]:
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return sum(defined) / len(defined)


def _percent(value: Optional[float]) -> Optional[str]:
    if value is None:
        return None
    return f"{100.0 * value:.2f}%"
