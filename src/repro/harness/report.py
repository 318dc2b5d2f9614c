"""ASCII table/series rendering for experiment output.

The benchmarks print their results in the same row/column layout the
paper uses for its tables, so EXPERIMENTS.md can be compared cell by
cell against the original.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence

__all__ = ["render_table", "render_series", "format_cell"]


def format_cell(value: Any) -> str:
    """Human-friendly cell formatting.

    ``None`` renders as ``-`` — "not measured" — so it cannot be
    mistaken for an empty-string artifact or a perfect score.
    """
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return "%.3f" % value
    if value is None:
        return "-"
    return str(value)


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
    row_labels: Optional[Sequence[str]] = None,
) -> str:
    """Render a fixed-width table with optional row labels."""
    body: List[List[str]] = []
    labels = list(row_labels) if row_labels is not None else None
    for i, row in enumerate(rows):
        cells = [format_cell(c) for c in row]
        if labels is not None:
            cells.insert(0, labels[i])
        body.append(cells)
    header = list(columns)
    if labels is not None:
        header.insert(0, "")
    widths = [len(h) for h in header]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = [title, rule, line(header), rule]
    out.extend(line(row) for row in body)
    out.append(rule)
    return "\n".join(out)


def render_series(
    title: str,
    x_name: str,
    xs: Sequence[Any],
    series: Mapping[str, Sequence[Any]],
) -> str:
    """Render parallel series (one figure) as a table with x first."""
    columns = [x_name] + sorted(series)
    rows = []
    for i, x in enumerate(xs):
        row = [x] + [series[name][i] for name in sorted(series)]
        rows.append(row)
    return render_table(title, columns, rows)
