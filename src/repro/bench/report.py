"""Fixed-width rendering of benchmark results in the paper's shape."""

from __future__ import annotations

from typing import Sequence


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    value_format: str = "{:.3f}",
) -> str:
    """Render a titled fixed-width table.

    Numeric cells are formatted with ``value_format``; everything else is
    stringified as-is.
    """
    rendered_rows = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(value_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [
        max(len(str(columns[i])), *(len(r[i]) for r in rendered_rows)) if rendered_rows
        else len(str(columns[i]))
        for i in range(len(columns))
    ]
    lines = [title, ""]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append(
            "  ".join(rendered[i].ljust(widths[i]) for i in range(len(columns)))
        )
    return "\n".join(lines)


def format_series(
    title: str,
    x_labels: Sequence[str],
    series: dict[str, Sequence[float]],
    unit: str,
    value_format: str = "{:.3f}",
) -> str:
    """Render figure-style data: one row per series, one column per x value.

    This is the textual equivalent of the paper's grouped bar charts
    (Figures 3-5): ``x_labels`` are the use cases, each series is one
    approach.
    """
    columns = ["approach"] + [str(label) for label in x_labels]
    rows = [[name, *values] for name, values in series.items()]
    return format_table(f"{title} [{unit}]", columns, rows, value_format=value_format)
