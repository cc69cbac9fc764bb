"""Text rendering of experiment results.

Renders the dicts returned by :mod:`repro.bench.experiments` — measured
values beside the paper's own block — as indented text for terminal
output.
"""

from __future__ import annotations

__all__ = ["format_experiment"]


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
