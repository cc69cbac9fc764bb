"""Regenerate paper artifacts from the command line.

Usage::

    python -m repro.bench fig4 fig13          # specific artifacts
    python -m repro.bench --all --scale smoke # the whole grid, fast
    python -m repro.bench --all --jobs 8 --sweep-out out  # + SWEEP_*.json
    python -m repro.bench --list              # point inventory, no execution
    python -m repro.bench fig14 fingerprints --scale smoke --jobs 2

Scales: smoke (seconds per artifact), bench (default), paper (closest to
the paper's measurement sizes; minutes per artifact).  Every run goes
through :func:`repro.bench.sweep.run_sweep`: the named figures' points
run across ``--jobs`` worker processes (default 1 = in-process), every
point that matches a seeded fingerprint pin is verified, and each
artifact is printed beside a wall-clock summary.  ``--sweep-out`` also
writes the merged trajectory, byte-identical (modulo wall clocks) for
any ``--jobs``.  Speed is measured elsewhere:
``benchmarks/ledger/run.py`` (see its README).
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import BENCH, PAPER, SMOKE
from .report import format_experiment
from .sweep import GRID, SweepMismatch, format_inventory, format_sweep, \
    run_sweep, write_sweep_trajectory

SCALES = {"smoke": SMOKE, "bench": BENCH, "paper": PAPER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", allow_abbrev=False,
        description="Regenerate tables/figures from the paper.")
    parser.add_argument("artifacts", nargs="*",
                        help=f"artifact ids: {', '.join(GRID)}")
    parser.add_argument("--all", action="store_true",
                        help="run every artifact")
    parser.add_argument("--scale", choices=list(SCALES), default="bench")
    parser.add_argument("--list", action="store_true",
                        help="list the points of the named artifacts "
                             "(default: the whole grid) and exit")
    parser.add_argument("--budget", type=float, default=None,
                        help="fail if the run's total wall-clock exceeds "
                             "this many seconds")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes "
                             "(default 1 = in-process; 0 = cpu_count - 1). "
                             "Pool workers are daemonic, so points that "
                             "start shard-worker processes themselves "
                             "(parallel=True kernel builds) always run "
                             "in the parent, never nested in a worker")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip seeded-fingerprint verification of "
                             "the points run")
    parser.add_argument("--sweep-out", default=None,
                        help="write the merged SWEEP_<date>.json "
                             "trajectory into this directory")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    figures = None if args.all else args.artifacts or None  # None: the grid
    unknown = [f for f in figures or () if f not in GRID]
    if unknown:
        print(f"unknown artifacts: {unknown}", file=sys.stderr)
        return 2
    if args.list:
        print(format_inventory(scale, figures))
        return 0
    if not (args.all or figures):
        parser.print_help()
        return 2
    jobs = args.jobs if args.jobs > 0 else max(1, (os.cpu_count() or 2) - 1)
    try:
        report = run_sweep(scale=scale, jobs=jobs, figures=figures,
                           verify=not args.no_verify)
    except SweepMismatch as exc:
        print(f"SWEEP FINGERPRINT MISMATCH: {exc}", file=sys.stderr)
        return 1
    for artifact in report["artifacts"].values():
        print(format_experiment(artifact), end="\n\n")
    print(format_sweep(report))
    if args.sweep_out is not None:
        print(f"wrote {write_sweep_trajectory(report, args.sweep_out)}")
    if args.budget is not None and report["total_wall_s"] > args.budget:
        print(f"SWEEP BUDGET EXCEEDED: {report['total_wall_s']}s "
              f"> {args.budget}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
