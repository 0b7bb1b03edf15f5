"""Plain-text rendering of experiment results.

Every figure driver returns rows of dictionaries; :func:`format_table` renders
them the way the paper's tables/figures list their series, so the output can
be compared side by side with the published numbers.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_value"]


def format_value(value: object, precision: int = 4) -> str:
    """Render one cell: floats get fixed precision, everything else str()."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != 0 and (abs(value) < 10 ** (-precision) or abs(value) >= 10**7):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render rows of dicts as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    keys = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[format_value(row.get(key, ""), precision) for key in keys] for row in rows]
    widths = [
        max(len(key), *(len(line[i]) for line in rendered)) for i, key in enumerate(keys)
    ]
    header = "  ".join(key.ljust(widths[i]) for i, key in enumerate(keys))
    separator = "  ".join("-" * widths[i] for i in range(len(keys)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(keys))) for line in rendered
    ]
    lines = ([title] if title else []) + [header, separator, *body]
    return "\n".join(lines)
