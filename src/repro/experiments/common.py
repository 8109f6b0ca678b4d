"""Shared experiment utilities: scales, tables, series rendering.

Every experiment module is split into a *data* step and a *view* step:
``run(scale, config=)`` computes the full structured result,
``result_rows`` flattens it into JSON-ready rows (what
:mod:`repro.bench` records), and ``render_report`` renders the
plain-text artifact as a pure function of the structured data.  This
module holds the pieces shared by all of them: the :class:`Scale`
presets, the table/sparkline renderers, and :func:`to_jsonable`.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence


class Scale(enum.Enum):
    """Experiment size presets.

    SMOKE — seconds on a laptop CPU; used by tests and benchmarks.
    PAPER — the paper's parameters (where CPU-feasible) for final runs.
    """

    SMOKE = "smoke"
    PAPER = "paper"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Plain-text table with right-aligned numeric columns."""

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1e5 or 0 < abs(v) < 1e-3:
                return f"{v:.3e}"
            return f"{v:.4g}"
        return str(v)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Coarse ASCII series plot for terminal reports."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = max(1, len(values) // width)
    sampled = list(values)[::step][:width]
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in sampled)


def banner(title: str) -> str:
    """The ``=== title ===`` header line used by every rendered report."""
    return f"\n=== {title} ===\n"


def print_report(title: str, body: str) -> None:
    """Print a rendered report under its banner (script entry points)."""
    print(banner(title) + body)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert a result structure to JSON-serializable types.

    NumPy scalars become Python scalars, ndarrays become nested lists,
    tuples become lists; dict keys are stringified.  Anything already
    JSON-native passes through unchanged.
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "tolist"):  # ndarray
        return to_jsonable(obj.tolist())
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return str(obj)
