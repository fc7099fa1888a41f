"""Plain-text report formatting for benchmark and example output."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def format_table(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render a list of dict rows as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    widths = {col: len(str(col)) for col in columns}
    rendered: List[List[str]] = []
    for row in rows:
        line = [fmt(row.get(col)) for col in columns]
        rendered.append(line)
        for col, cell in zip(columns, line):
            widths[col] = max(widths[col], len(cell))

    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[col] for col in columns))
    for line in rendered:
        lines.append("  ".join(cell.ljust(widths[col]) for col, cell in zip(columns, line)))
    return "\n".join(lines)


def print_rows(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None,
               title: Optional[str] = None) -> None:
    """Print a table (convenience for benchmarks/examples)."""
    print(format_table(rows, columns=columns, title=title))
