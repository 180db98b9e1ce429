"""Plain-text table/series rendering for benchmark output.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep the output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows))
        for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).rjust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(c, "")).rjust(widths[c]) for c in columns)
        )
    return "\n".join(lines)
