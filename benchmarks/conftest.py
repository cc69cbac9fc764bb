"""Shared helpers for the figure/table benchmark suite.

Each benchmark file regenerates one paper artifact via
:func:`repro.bench.sweep.run_figure`, prints the measured-vs-paper comparison,
and asserts the *shape* claims (orderings, trends, crossovers) the paper
makes.  Absolute numbers are calibration-dependent and are not asserted
except as loose ratios.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

from repro.bench.harness import Scale

# The default fidelity for the bench suite: large enough for stable
# rankings, small enough that the whole suite finishes in minutes.
BENCH_SCALE = Scale("bench-suite", record_count=10_000, warmup_txns=200,
                    measure_txns=1200, max_sim_time=150.0)

# Conflict experiments need a bigger key space so conflict probabilities
# are not inflated relative to the paper's 100K records.
CONFLICT_SCALE = BENCH_SCALE.derive(record_count=50_000)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def print_dict(title: str, measured: dict, paper: dict | None = None) -> None:
    print(f"\n=== {title} ===")
    keys = list(measured)
    for key in keys:
        line = f"  {key!s:>10}: measured {measured[key]:>12,.1f}"
        if paper and key in paper:
            line += f"   paper {paper[key]:>12,.1f}"
        print(line)
