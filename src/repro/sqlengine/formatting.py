"""Pretty-printing of result rows as an aligned text table (used by the experiments)."""

from __future__ import annotations

from collections.abc import Sequence


def format_table(
    header: Sequence[str], rows: Sequence[Sequence[str]], truncated: bool = False
) -> str:
    """Render already-stringified rows as an aligned text table."""
    widths = [len(name) for name in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(name.ljust(width) for name, width in zip(header, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if truncated:
        lines.append("... (truncated)")
    return "\n".join(lines)
