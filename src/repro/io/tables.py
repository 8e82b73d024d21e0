"""ASCII table rendering for experiment results.

Rows are dicts; columns are inferred from the first row (or given
explicitly).  Numbers are right-aligned with compact formatting; this
is what ``repro run`` prints so that every experiment regenerates a
readable paper-style table.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e4 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


def render_table(
    rows: Sequence[dict],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render a list of row-dicts as a fixed-width ASCII table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        # Union of keys across rows, ordered by first appearance, so
        # heterogeneous row groups (e.g. E9's two series) still render.
        columns = []
        for r in rows:
            for key in r:
                if key not in columns:
                    columns.append(key)
    cells = [[_format_value(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), max((len(row[i]) for row in cells), default=0))
        for i, c in enumerate(columns)
    ]
    sep = "-+-".join("-" * w for w in widths)
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    body = "\n".join(
        " | ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in cells
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, sep, body])
    return "\n".join(parts)
