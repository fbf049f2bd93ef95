"""Plain-text rendering of experiment tables (used by the CLI and EXPERIMENTS.md)."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.experiments.harness import ExperimentResult


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Render rows as an aligned monospaced table.

    Args:
        rows: mappings with identical keys (first row defines the column
            order when ``columns`` is omitted).
        columns: explicit column selection/order.
    """
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )
    return f"{header}\n{sep}\n{body}"


def render_experiment(result: ExperimentResult) -> str:
    """Full text block for one experiment: header, table, checks, notes."""
    parts = [
        f"== {result.exp_id}: {result.title}",
        f"   (reproduces {result.paper_ref})",
        "",
        render_table(result.rows),
        "",
    ]
    parts.extend(str(c) for c in result.checks)
    if result.notes:
        parts.extend(["", result.notes])
    parts.append("")
    return "\n".join(parts)
