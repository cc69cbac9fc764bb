"""Regenerate paper artifacts from the command line.

Usage::

    python -m repro.bench fig4 fig13          # specific artifacts
    python -m repro.bench --all --scale smoke # everything, fast
    python -m repro.bench --list
    python -m repro.bench --sweep --jobs 8    # whole grid -> SWEEP_<date>.json
    python -m repro.bench --sweep --list      # point inventory, no execution
    python -m repro.bench --sweep fig14 fingerprints --scale smoke --jobs 2

Scales: smoke (seconds per artifact), bench (default), paper (closest to
the paper's measurement sizes; minutes per artifact).  ``--sweep`` runs
the figure grid point-parallel across ``--jobs`` worker processes,
verifies every point that matches a seeded fingerprint pin, and merges
one trajectory file byte-identical (modulo wall clocks) to a serial run.
Speed is measured elsewhere: ``benchmarks/ledger/run.py`` (see its README).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import experiments
from .harness import BENCH, PAPER, SMOKE
from .report import format_experiment

EXPERIMENTS = {
    "fig4": experiments.fig4_peak_throughput,
    "fig5": experiments.fig5_latency,
    "fig6": experiments.fig6_smallbank,
    "fig7": experiments.fig7_cft_vs_bft,
    "fig8": experiments.fig8_latency_breakdown,
    "tab4": experiments.tab4_scaling,
    "tab5": experiments.tab5_tidb_matrix,
    "fig9": experiments.fig9_skew,
    "fig10": experiments.fig10_opcount,
    "fig11": experiments.fig11_record_size,
    "fig12": experiments.fig12_storage,
    "fig13": experiments.fig13_ads_overhead,
    "fig14": experiments.fig14_sharding,
    "fig14_scaling": experiments.fig14_scaling_sweep,
    "fig15": experiments.fig15_hybrid_forecast,
    "isolation_ablation": experiments.isolation_ablation,
    "openloop_knee": experiments.openloop_knee,
}

SCALES = {"smoke": SMOKE, "bench": BENCH, "paper": PAPER}

# fig12/fig13 take no scale (pure data-structure measurements)
_NO_SCALE = {"fig12", "fig13"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables/figures from the paper.")
    parser.add_argument("artifacts", nargs="*",
                        help=f"artifact ids: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--all", action="store_true",
                        help="run every artifact")
    parser.add_argument("--scale", choices=list(SCALES), default="bench")
    parser.add_argument("--list", action="store_true",
                        help="list artifact ids and exit")
    parser.add_argument("--budget", type=float, default=None,
                        help="with --sweep: fail if the sweep's total "
                             "wall-clock exceeds this many seconds")
    parser.add_argument("--sweep", action="store_true",
                        help="run the figure grid point-parallel and "
                             "write a SWEEP_<date>.json trajectory file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="with --sweep: worker processes "
                             "(default 1 = serial; 0 = cpu_count - 1). "
                             "Pool workers are daemonic, so points that "
                             "start shard-worker processes themselves "
                             "(parallel=True kernel builds) always run "
                             "in the parent, never nested in a worker")
    parser.add_argument("--no-verify", action="store_true",
                        help="with --sweep: skip seeded-fingerprint "
                             "verification of swept points")
    parser.add_argument("--sweep-out", default=".",
                        help="with --sweep: directory for the "
                             "SWEEP_*.json file")
    args = parser.parse_args(argv)

    if args.sweep:
        from .sweep import SweepMismatch, format_inventory, format_sweep, \
            run_sweep, write_sweep_trajectory
        scale = SCALES[args.scale]
        figures = args.artifacts or None
        if figures:
            known = set(EXPERIMENTS) | {"fingerprints"}
            unknown = [f for f in figures if f not in known]
            if unknown:
                print(f"unknown artifacts: {unknown}", file=sys.stderr)
                return 2
        if args.list:
            print(format_inventory(scale, figures))
            return 0
        jobs = (args.jobs if args.jobs > 0
                else max(1, (os.cpu_count() or 2) - 1))
        try:
            report = run_sweep(scale=scale, jobs=jobs, figures=figures,
                               verify=not args.no_verify)
        except SweepMismatch as exc:
            print(f"SWEEP FINGERPRINT MISMATCH: {exc}", file=sys.stderr)
            return 1
        print(format_sweep(report))
        path = write_sweep_trajectory(report, out_dir=args.sweep_out)
        print(f"wrote {path}")
        if args.budget is not None and report["total_wall_s"] > args.budget:
            print(f"SWEEP BUDGET EXCEEDED: {report['total_wall_s']}s "
                  f"> {args.budget}s", file=sys.stderr)
            return 1
        return 0

    ignored = [f"--{dest.replace('_', '-')}"
               for dest in ("budget", "jobs", "no_verify", "sweep_out")
               if getattr(args, dest) != parser.get_default(dest)]
    if ignored:
        print(f"{', '.join(ignored)}: only valid with --sweep",
              file=sys.stderr)
        return 2
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    targets = list(EXPERIMENTS) if args.all else args.artifacts
    if not targets:
        parser.print_help()
        return 2
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown artifacts: {unknown}", file=sys.stderr)
        return 2
    scale = SCALES[args.scale]
    for target in targets:
        fn = EXPERIMENTS[target]
        start = time.time()
        result = fn() if target in _NO_SCALE else fn(scale=scale)
        print(format_experiment(result))
        print(f"[{target} took {time.time() - start:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
