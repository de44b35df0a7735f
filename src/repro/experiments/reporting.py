"""Experiment results and their textual rendering.

Each experiment returns an :class:`ExperimentResult`: an ordered list of
row dictionaries plus labels, which renders as an aligned text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import ExperimentError

__all__ = ["ExperimentResult", "format_table"]


@dataclass
class ExperimentResult:
    """One reproduced table or figure.

    Attributes:
        experiment_id: Short id (``"fig9"``, ``"table1"``, ...).
        title: The paper artifact it reproduces.
        columns: Column names, in display order.
        rows: One mapping per row; missing keys render blank.
        expectation: One-line statement of the paper's expected shape.
        notes: Free-form remarks (scale used, substitutions...).
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: list[Mapping[str, object]] = field(default_factory=list)
    expectation: str = ""
    notes: str = ""

    def add(self, **values: object) -> None:
        """Append one row."""
        self.rows.append(values)

    def column(self, name: str) -> list[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ExperimentError(f"unknown column {name!r}")
        return [row.get(name) for row in self.rows]

    def render(self) -> str:
        """The result as an aligned text table with headers."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        if self.expectation:
            lines.append(f"expected shape: {self.expectation}")
        lines.append(format_table(self.columns, self.rows))
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    columns: Sequence[str], rows: Sequence[Mapping[str, object]]
) -> str:
    """Aligned plain-text table."""
    rendered = [[_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) if rendered else len(col)
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))
        for cells in rendered
    ]
    return "\n".join([header, rule, *body])

