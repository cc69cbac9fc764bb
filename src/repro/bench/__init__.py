"""Benchmark harness: the figure engine, its measurements, and reporting."""

from .experiments import POINT_TABLES, fig12_storage, fig13_ads_overhead
from .harness import BENCH, PAPER, SMOKE, Scale, run_point, run_smallbank_point
from .report import format_experiment
from .sweep import run_figure

__all__ = [
    "BENCH",
    "PAPER",
    "POINT_TABLES",
    "SMOKE",
    "Scale",
    "fig12_storage",
    "fig13_ads_overhead",
    "format_experiment",
    "run_figure",
    "run_point",
    "run_smallbank_point",
]
