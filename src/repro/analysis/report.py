"""ASCII table rendering for benchmark output.

The benchmark harness prints tables in the same "rows the paper reports"
spirit: one row per sweep point, one column per protocol or metric.
"""

from __future__ import annotations

from typing import Any, Sequence


class Table:
    """A simple right-aligned ASCII table."""

    def __init__(self, columns: Sequence[str], title: str = ""):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(
            column.ljust(widths[index]) for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                " | ".join(cell.rjust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
