"""Plain-text result tables for the benchmark harnesses.

Every benchmark prints the same rows and columns the paper reports.  A tiny
formatting helper keeps that output consistent and easy to diff against
``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class ResultTable:
    """A simple column-aligned table with an optional title."""

    title: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append a row; values are converted with :func:`format_cell`."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([format_cell(value) for value in values])

    def render(self) -> str:
        """Render the table as aligned plain text."""
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_records(self) -> list[dict[str, str]]:
        """Return the rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def format_cell(value: object) -> str:
    """Format a table cell: floats get two decimals, everything else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
