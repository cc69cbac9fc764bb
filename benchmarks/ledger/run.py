"""Perf ledger: seven seeded workloads, host-throughput metrics, layer fold.

    python benchmarks/ledger/run.py [--seed 7] [--trace] [--out FILE]
    python benchmarks/ledger/run.py --workload NAME --seed 7 --seconds 12 --trace 0

Without ``--workload`` the seven workloads run one after another, each
in a fresh subprocess, and the result set (with the box description) is
written to ``--out``.  With ``--workload`` one workload runs in this
process and the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

All timings are host time.  Simulated statistics are deterministic per
seed; they are checked (one digest across repetitions, equal to the
users' own entry point), never scored.  The repo holds shape checks but
no numeric reference results, so the model is unvalidated and no error
figure is given.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Reported for a per-layer metric this workload cannot supply (a
#: counter whose name disappeared, a phase that only another workload
#: runs).  Every real value is >= 0.
UNAVAILABLE = -1

#: Reduced transaction count of the parallel-kernel pairs.
PARALLEL_TXNS = 2_000
PARALLEL_PAIRS = 3


def box_description() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit or "unknown",
            "loadavg_start": os.getloadavg()[0]}


def close_box(box: dict) -> dict:
    box["loadavg_end"] = os.getloadavg()[0]
    # Marked, not refused: a busy box widens every timing's spread.  The
    # ledger's own process is one runnable task by the end, so the end
    # reading is allowed one more than the start reading.
    box["noisy"] = box["loadavg_start"] > box["nproc"] - 1 \
        or box["loadavg_end"] > box["nproc"]
    return box


def one_rep(workload, seed: int, spans, rep: int, profile=None) -> dict:
    """Set up and drive ``workload`` once; host timings of both parts."""
    gc.collect()
    spans.rep = rep
    if profile is not None:
        profile.enable()
    try:
        start = time.perf_counter()
        ctx = workload.setup(seed, spans.span)
        ready = time.perf_counter()
        outcome = workload.drive(ctx, spans.span)
        end = time.perf_counter()
    finally:
        if profile is not None:
            profile.disable()
    return {"rep": rep, "setup_s": ready - start, "run_wall_s": end - ready,
            "outcome": outcome}


def check(workload, reps: list[dict], warm_digest) -> list[str]:
    """Every reason this workload's result cannot be trusted."""
    problems = [f"repetition {r['rep']}: {p}"
                for r in reps for p in r["outcome"].problems]
    reference = reps[0]["outcome"].digest
    for r in reps[1:]:
        if r["outcome"].digest != reference:
            problems.append(f"repetition {r['rep']}: sim_digest "
                            f"{r['outcome'].digest[:12]} differs from "
                            f"repetition {reps[0]['rep']}'s {reference[:12]}")
    if warm_digest is not None and warm_digest != reference:
        problems.append("warm-up: the users' entry point gave sim_digest "
                        f"{warm_digest[:12]}, the split path {reference[:12]}")
    return problems


def warm_up(workload, seed: int, spans):
    """The discarded first repetition; returns its digest (or ``None``)."""
    if not workload.warm_up:
        return None
    gc.collect()
    if workload.entry_point is not None:
        return workload.entry_point(seed).digest
    return one_rep(workload, seed, spans, rep=-1)["outcome"].digest


def run_untraced(workload, seed: int, seconds: float) -> dict:
    from layers import Spans
    spans = Spans()
    warm_digest = warm_up(workload, seed, spans)
    reps: list[dict] = []
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        last = (reps[-1]["setup_s"] + reps[-1]["run_wall_s"]) if reps else 0.0
        if len(reps) >= workload.min_reps and elapsed + last > seconds:
            break
        rep = one_rep(workload, seed, spans, rep=len(reps))
        rep["outcome"].system = None     # free the cluster before the next
        reps.append(rep)
    samples = {
        "host_ops_per_s": [r["outcome"].ops / r["run_wall_s"] for r in reps],
        "run_wall_s": [r["run_wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
    }
    detail = verdict(workload, seed, reps, warm_digest)
    detail["counts"] = reps[0]["outcome"].counts
    detail["metrics"] = {name: summary(values, END_TO_END[name]["unit"])
                         for name, values in samples.items()}
    return detail


def verdict(workload, seed: int, reps: list[dict], warm_digest) -> dict:
    """Was the run correct, and how many operations failed.

    Fail loudly, never fold: any problem fails every operation.
    """
    problems = check(workload, reps, warm_digest)
    attempted = sum(r["outcome"].ops for r in reps)
    failed = attempted if problems \
        else sum(r["outcome"].failed for r in reps)
    return {"workload": workload.name, "seed": seed,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted, "problems": problems,
            "sim_digest": reps[-1]["outcome"].digest}


def summary(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit,
            "min": min(values), "max": max(values), "n": len(values),
            "samples": values}


def run_traced(workload, seed: int) -> dict:
    """One profiled repetition, the exact counts, the direct timings."""
    import micro
    import layers
    spans = layers.Spans()
    if workload.warm_up:
        one_rep(workload, seed, spans, rep=-1)
    plain = one_rep(workload, seed, spans, rep=0)
    plain["outcome"].system = None
    profile = cProfile.Profile()
    traced = one_rep(workload, seed, spans, rep=1, profile=profile)
    outcome = traced["outcome"]

    folded = layers.fold(profile)
    values: dict = {}
    for layer, numbers in folded["layers"].items():
        for key, number in numbers.items():
            values[f"{layer}.{key}"] = number
    values["bench.trace_overhead"] = \
        traced["run_wall_s"] / plain["run_wall_s"]
    values.update(layers.kernel_counts(folded["table"]))
    values.update(layers.system_counts(outcome.system))
    values.update(outcome.counts)
    schedules = values.get("sim.kernel.schedules")
    if schedules:
        values["sim.kernel.us_per_event"] = \
            plain["run_wall_s"] / schedules * 1e6
    outcome.system = None
    gc.collect()
    values.update(micro.run_all(seed))
    if workload.name == "ahl_64shard_rmw":
        values.update(parallel_phase(workload, seed))

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace_{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "profiled_self_s": folded["total_s"],
        "unattributed_self_s": folded["other_s"],
        "layers": folded["layers"], "spans": spans.records}, indent=1))

    detail = verdict(workload, seed, [plain, traced], None)
    detail["named_share"] = 1.0 - folded["other_s"] / folded["total_s"]
    detail["metrics"] = {
        name: {"value": values[name] if values.get(name) is not None
               else UNAVAILABLE, "unit": spec["unit"]}
        for name, spec in PER_LAYER.items()}
    return detail


def child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:          # ended while we were looking
            continue
        # "pid (comm) state ppid ..."; comm may itself hold ')' or spaces
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The shard workers stop on request.  The ``spawn`` start method also
    starts multiprocessing's resource tracker, which by design ends only
    after its parent has exited and is waited for by nobody — it would
    outlive the run.  Closing its pipe ends it; whatever is left after
    that (nothing, unless a source change starts a new kind of child) is
    killed.  Every child is waited for.
    """
    parallel = sys.modules.get("repro.sim.parallel")
    if parallel is not None:
        parallel.shutdown_pool()
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if hasattr(tracker, "_stop"):
        tracker._stop()          # closes the pipe, then waitpid()s
    for pid in child_pids():
        try:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def parallel_phase(workload, seed: int) -> dict:
    """Interleaved serial/parallel pairs of the AHL point.

    Box-dependent and multi-process, so a layer metric, never an
    end-to-end one: with one worker process the "speedup" only measures
    the barrier overhead.
    """
    from workloads import parallel_pair
    try:
        pairs = [parallel_pair(workload, seed, PARALLEL_TXNS)
                 for _ in range(PARALLEL_PAIRS)]
    finally:
        stop_children()
    serial = statistics.median(p["walls"]["serial"] for p in pairs)
    parallel = statistics.median(p["walls"]["parallel"] for p in pairs)
    kernel = pairs[-1]["kernel"]
    if kernel.get("procs") == 1:
        print("sim.parallel: one worker process — no speedup measurable "
              "on this box; the ratio below is barrier overhead",
              file=sys.stderr)
    return {
        "sim.parallel.speedup": serial / parallel,
        "sim.parallel.barrier_wait_share":
            kernel.get("barrier_wait_s", 0.0) / pairs[-1]["walls"]["parallel"],
        "sim.parallel.procs": kernel.get("procs"),
        "sim.parallel.barriers": kernel.get("barriers"),
    }


def format_rows(detail: dict) -> list[str]:
    rows = []
    for name, m in detail["metrics"].items():
        spread = (f"  [min {m['min']:.6g}, max {m['max']:.6g}, n={m['n']}]"
                  if "n" in m else "")
        rows.append(f"{detail['workload']:24s} {name:42s} "
                    f"{m['value']:>14.6g} {m['unit']}{spread}")
    rows.append(f"{detail['workload']:24s} {'failed_share':42s} "
                f"{detail['failed_share']:>14.6g} fraction  "
                f"[{detail['failed']}/{detail['attempted']} ops, "
                f"digest {detail['sim_digest'][:12]}]")
    rows.extend(f"{detail['workload']:24s} FAILED: {p}"
                for p in detail["problems"])
    return rows


def run_one(args) -> int:
    from workloads import BY_NAME
    if args.workload not in BY_NAME:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(BY_NAME)}", file=sys.stderr)
        return 2
    workload = BY_NAME[args.workload]
    box = box_description()
    detail = run_traced(workload, args.seed) if args.trace \
        else run_untraced(workload, args.seed, args.seconds)
    detail["box"] = close_box(box)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    print("\n".join(format_rows(detail)))
    print(json.dumps({
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in detail["metrics"].items()}}))
    return 0 if detail["correct"] else 1


def run_set(args) -> int:
    """All workloads, strictly one at a time, each in a fresh process."""
    OUT_DIR.mkdir(exist_ok=True)
    box = box_description()
    result = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for spec in SPEC["workloads"]:
        name = spec["name"]
        for trace in ([0, 1] if args.trace else [0]):
            detail_path = OUT_DIR / f"detail_{name}_{trace}.json"
            detail_path.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--detail", str(detail_path)],
                capture_output=True, text=True, timeout=900)
            if detail_path.exists():
                detail = json.loads(detail_path.read_text())
            else:      # crashed before it could report: every op failed
                detail = {"workload": name, "correct": False,
                          "attempted": 1, "failed": 1, "failed_share": 1.0,
                          "sim_digest": "", "metrics": {},
                          "problems": [f"subprocess exited {proc.returncode}"
                                       f": {proc.stderr.strip()[-400:]}"]}
            if proc.returncode != 0 or not detail["correct"]:
                status = 1
            key = "traced" if trace else "untraced"
            result["workloads"].setdefault(name, {})[key] = detail
            print("\n".join(format_rows(detail)), flush=True)
    result["box"] = close_box(box)
    if result["box"]["noisy"]:
        print(f"NOISY: load average {result['box']['loadavg_start']:.2f} -> "
              f"{result['box']['loadavg_end']:.2f} on "
              f"{result['box']['nproc']} cores", file=sys.stderr)
    out = Path(args.out) if args.out else OUT_DIR / "latest.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"result set written to {out}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="result-set file (all workloads)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        return run_one(args) if args.workload else run_set(args)
    finally:
        stop_children()      # on every path out, not only the clean one


if __name__ == "__main__":
    sys.exit(main())
