"""Paper-style text rendering of experiment results.

Turns the dicts returned by :mod:`repro.bench.experiments` into the same
rows/series the paper prints, side by side with the paper's numbers, for
terminal output.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["format_table", "format_series", "format_experiment",
           "shape_ratio"]


def shape_ratio(measured: dict, paper: dict) -> Optional[float]:
    """Geometric-mean |log ratio| between measured and paper values for
    shared keys — 1.0 means identical shape; lower is better matched."""
    import math
    logs = []
    for key in measured:
        if key in paper and paper[key] and measured[key]:
            logs.append(abs(math.log(measured[key] / paper[key])))
    if not logs:
        return None
    return math.exp(sum(logs) / len(logs))


def format_table(title: str, columns: list, rows: dict[str, dict],
                 unit: str = "tps", width: int = 10) -> str:
    """Render rows of {row_name: {column: value}} as an aligned table."""
    header = f"{'':16s}" + "".join(f"{str(c):>{width}}" for c in columns)
    lines = [title, header, "-" * len(header)]
    for name, cells in rows.items():
        row = f"{name:16s}"
        for column in columns:
            value = cells.get(column)
            if value is None:
                row += f"{'—':>{width}}"
            elif isinstance(value, float):
                row += f"{value:>{width}.0f}" if value >= 10 \
                    else f"{value:>{width}.2f}"
            else:
                row += f"{value:>{width}}"
        lines.append(row)
    lines.append(f"({unit})")
    return "\n".join(lines)


def format_series(title: str, series: dict[str, float],
                  unit: str = "tps") -> str:
    lines = [title]
    for key, value in series.items():
        lines.append(f"  {key:20s} {value:12,.1f} {unit}")
    return "\n".join(lines)


def format_experiment(result: dict) -> str:
    """Best-effort rendering of any experiments.py result dict."""
    exp_id = result.get("id", "experiment")
    parts = [f"=== {exp_id} ==="]
    for key, value in result.items():
        if key in ("id",):
            continue
        if isinstance(value, dict):
            parts.append(f"[{key}]")
            parts.append(_render_nested(value, indent=2))
        else:
            parts.append(f"{key}: {value}")
    return "\n".join(parts)


def _render_nested(data: dict, indent: int = 0) -> str:
    pad = " " * indent
    lines = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_nested(value, indent + 2))
        elif isinstance(value, float):
            lines.append(f"{pad}{key}: {value:,.2f}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)
