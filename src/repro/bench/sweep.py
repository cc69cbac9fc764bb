"""The figure engine: one figure or the whole grid, in max-point time.

The grid (Figs 4-15, Tabs 4/5) is embarrassingly parallel across
measurement points: every point is a self-contained seeded simulation.
:func:`run_figure` runs one figure's declarative
:class:`~repro.bench.harness.PointSpec` table and returns its artifact;
:func:`run_sweep` does the same for any set of figures in one pass and
returns the merged trajectory report.  Both farm the specs through one
pool (longest-job-first, so wall time approaches the heaviest single
point; ``jobs <= 1`` runs in-process) and fold the results through the
per-figure assemblers of :data:`~repro.bench.experiments.POINT_TABLES`.
``run_sweep`` also verifies every finished point against the seeded
fingerprint registry where a pin exists.

Usage::

    python -m repro.bench --all --jobs 8              # full grid
    python -m repro.bench --list                      # point inventory
    python -m repro.bench fig4 fig14 --scale smoke --jobs 2

Determinism contract: per-point results do not depend on which process
runs them or in what order (``run_spec`` resets the process-global id
counters per point), results are merged by enumeration key rather than
completion order, and :func:`deterministic_view` names exactly the
fields that may differ between two runs (wall clocks and pool shape).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from .experiments import POINT_TABLES
from .fingerprints import expected_for_spec, fingerprint_specs, \
    fingerprints_assemble, verify_point
from .harness import BENCH, PointResult, PointSpec, Scale, run_spec

__all__ = ["GRID", "enumerate_grid", "run_figure", "run_sweep",
           "write_sweep_trajectory", "deterministic_view", "format_sweep",
           "format_inventory", "SweepMismatch"]

#: Report fields that legitimately differ between two equivalent runs:
#: wall clocks, pool shape, and the file stamp.  Everything else must be
#: byte-identical between a serial and a parallel sweep.
WALL_CLOCK_FIELDS = ("jobs", "total_wall_s", "max_point_wall_s",
                     "points_wall_s", "date")


#: Every figure id of the grid.  The seeded fingerprint registry rides
#: along as one more figure — the grid's self-check that the simulator
#: in this checkout still reproduces the pinned universe.
GRID = (*POINT_TABLES, "fingerprints")


class SweepMismatch(AssertionError):
    """A swept point disagreed with its seeded fingerprint pin."""


def _figure(fig: str) -> tuple:
    """``(points, assemble)`` for a figure id of :data:`GRID`."""
    if fig == "fingerprints":
        return (lambda scale: fingerprint_specs()), fingerprints_assemble
    return POINT_TABLES[fig]


def enumerate_grid(scale: Scale = BENCH,
                   figures: Optional[list[str]] = None) -> list[PointSpec]:
    """Flatten the requested figures into one spec list, grid order.

    ``figures=None`` means the whole :data:`GRID`.  ``"fingerprints"``
    enumerates last wherever it is named.
    """
    wanted = sorted(GRID if figures is None else figures,
                    key="fingerprints".__eq__)
    return [spec for fig in wanted for spec in _figure(fig)[0](scale)]


def _worker_init() -> None:
    """Per-worker warmup: pay the import bill before any timed point."""
    import repro.bench.experiments   # noqa: F401  (pulls systems/workloads)
    import repro.chaos               # noqa: F401
    from repro.sim.kernel import Environment
    Environment().run(until=0.0)     # touch the kernel's hot paths


def _run_indexed(item: tuple) -> tuple:
    idx, spec = item
    print(f"[sweep] start  {spec.label}", file=sys.stderr, flush=True)
    return idx, run_spec(spec)


def _iter_pool(specs: list[PointSpec], jobs: int):
    """Yield ``(idx, PointResult)`` as points finish, longest job first."""
    order = sorted(range(len(specs)), key=lambda i: -specs[i].weight)
    items = [(i, specs[i]) for i in order]
    if jobs <= 1:
        for item in items:
            yield _run_indexed(item)
        return
    # Points that spawn shard-worker processes themselves (no_fork, e.g.
    # parallel=True kernel builds) cannot run inside a daemonic pool
    # worker — the coupler refuses nested pools.  They run in the parent,
    # overlapped with the pool draining the rest.
    pool_items = [item for item in items if not item[1].no_fork]
    parent_items = [item for item in items if item[1].no_fork]
    # A spawn worker re-imports ``__main__`` from its file.  With the
    # script fed on stdin that path is '<stdin>': every worker dies in
    # start-up, the pool re-spawns it without end, and the sweep hangs.
    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    if main_file is not None and not Path(main_file).is_file():
        raise RuntimeError(
            f"jobs={jobs} needs worker processes that re-import __main__, "
            f"but __main__.__file__ is {main_file!r}, which is not a file "
            "(script fed on stdin?).  Run it from a file with an "
            "`if __name__ == \"__main__\":` guard, or pass jobs=1.")
    ctx = mp.get_context("spawn")
    with ctx.Pool(processes=jobs, initializer=_worker_init) as pool:
        pending = pool.imap_unordered(_run_indexed, pool_items, chunksize=1)
        for item in parent_items:
            yield _run_indexed(item)
        yield from pending


def run_figure(fig: str, scale: Scale = BENCH, jobs: int = 1,
               **point_kwargs) -> dict:
    """Run one figure's point table and return its assembled artifact.

    ``point_kwargs`` go to the figure's points enumerator (``systems=``,
    ``node_counts=``, ...) to run a slice of the figure.
    """
    points, assemble = _figure(fig)
    specs = points(scale, **point_kwargs)
    results = dict(_iter_pool(specs, jobs))
    return assemble({spec.key: results[i] for i, spec in enumerate(specs)})


def run_sweep(scale: Scale = BENCH, jobs: int = 1,
              figures: Optional[list[str]] = None,
              verify: bool = True,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run the figure grid and return the merged trajectory report.

    Points are executed longest-first across ``jobs`` worker processes
    (``jobs <= 1`` runs in-process) and merged by enumeration key, so the
    report is byte-identical for any ``jobs`` except the fields named in
    :data:`WALL_CLOCK_FIELDS`.  With ``verify`` (the default), any point
    whose canonical identity matches a seeded fingerprint pin is checked
    and the first mismatch raises :class:`SweepMismatch` after the sweep
    drains — a fingerprint drift is never reported as a finished sweep.
    """
    tell = progress if progress is not None else (
        lambda line: print(line, file=sys.stderr, flush=True))
    specs = enumerate_grid(scale, figures)
    total_weight = sum(s.weight for s in specs) or 1.0
    results: dict[int, PointResult] = {}
    mismatches: list[str] = []
    checked = 0
    start = time.perf_counter()
    done_weight = 0.0
    for idx, result in _iter_pool(specs, jobs):
        spec = specs[idx]
        if result is None:     # worker died; surface as a hard failure
            raise SweepMismatch(f"worker returned no result for {spec.label}")
        results[idx] = result
        done_weight += spec.weight
        if verify and expected_for_spec(spec) is not None:
            checked += 1
            problem = verify_point(spec, result)
            if problem is not None:
                mismatches.append(problem)
                tell(f"[sweep] FINGERPRINT MISMATCH {spec.label}: {problem}")
        elapsed = time.perf_counter() - start
        eta = elapsed / done_weight * (total_weight - done_weight)
        tell(f"[sweep] finish {spec.label} in {result.wall_s:.2f}s "
             f"({len(results)}/{len(specs)}, ETA {eta:.0f}s)")
    wall = time.perf_counter() - start

    by_figure: dict[str, dict] = {}
    for idx, spec in enumerate(specs):      # enumeration order, not finish
        by_figure.setdefault(spec.figure, {})[spec.key] = results[idx]
    artifacts = {fig: _figure(fig)[1](res)
                 for fig, res in by_figure.items()}

    report = {
        "kind": "sweep",
        "scale": scale.name,
        "figures": list(by_figure),
        "points": len(specs),
        "verified": checked - len(mismatches),
        "mismatches": list(mismatches),
        "artifacts": artifacts,
        # wall-clock section (excluded from equivalence comparisons)
        "jobs": jobs,
        "total_wall_s": round(wall, 3),
        "max_point_wall_s": round(
            max((r.wall_s for r in results.values()), default=0.0), 3),
        "points_wall_s": {specs[i].label: results[i].wall_s
                          for i in range(len(specs))},
    }
    if mismatches:
        raise SweepMismatch("; ".join(mismatches))
    return report


def deterministic_view(report: dict) -> dict:
    """The report minus every field two equivalent runs may differ on."""
    return {k: v for k, v in report.items() if k not in WALL_CLOCK_FIELDS}


def write_sweep_trajectory(report: dict, out_dir: str = ".") -> Path:
    """Persist ``SWEEP_<YYYY-MM-DD>.json``; never overwrites a file."""
    stamp = time.strftime("%Y-%m-%d")
    path = Path(out_dir) / f"SWEEP_{stamp}.json"
    run = 0
    while path.exists():
        run += 1
        path = Path(out_dir) / f"SWEEP_{stamp}.{run}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    report = dict(report)
    report["date"] = stamp
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    return path


def format_sweep(report: dict) -> str:
    lines = [f"sweep trajectory ({report['scale']} scale, "
             f"{report['points']} points, {report['jobs']} jobs, "
             f"{report['total_wall_s']}s wall, "
             f"max point {report['max_point_wall_s']}s)"]
    for fig in report["figures"]:
        walls = [w for label, w in report["points_wall_s"].items()
                 if label.split(":")[0] == fig]
        lines.append(f"  {fig:12s} {len(walls):3d} points "
                     f"{sum(walls):8.2f}s")
    if report["mismatches"]:
        lines.append(f"  MISMATCHES: {len(report['mismatches'])}")
    return "\n".join(lines)


def format_inventory(scale: Scale = BENCH,
                     figures: Optional[list[str]] = None) -> str:
    """The ``--list`` view: every point, no execution."""
    specs = enumerate_grid(scale, figures)
    lines = [f"{len(specs)} points at {scale.name} scale "
             f"(total weight {sum(s.weight for s in specs):.1f})"]
    for spec in specs:
        lines.append(f"  {spec.label:40s} runner={spec.runner:9s} "
                     f"weight={spec.weight:6.2f}")
    return "\n".join(lines)
