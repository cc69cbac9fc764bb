"""The seven ledger workloads: every input fixed here, none read from the repo.

Each workload splits the users' entry point (``run_point``,
``run_smallbank_point``, ``run_open_loop``, ``run_sweep``) into a timed
set-up and a timed run, using only public functions, so a later source
change cannot silently alter the load.  ``entry_point`` calls the users'
own function with the same inputs; its digest must equal the split
path's, which proves the split path measures what users run.

All timings taken around these calls are *host* time.  Simulated
statistics are deterministic per seed and are only checked (``digest``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.bench.harness import SMOKE, Scale, run_point, run_smallbank_point
from repro.bench.sweep import SweepMismatch, run_sweep
from repro.core.builder import build_system
from repro.sim.kernel import Environment
from repro.systems.base import SystemConfig
from repro.workloads.driver import DriverConfig, run_closed_loop
from repro.workloads.openloop import OpenLoopConfig, run_open_loop
from repro.workloads.smallbank import SmallbankConfig, SmallbankWorkload
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

SRC = Path(__file__).resolve().parents[2] / "src"

#: Simulated-time safety wall; a run that reaches it is a failed run.
MAX_SIM_TIME = 180.0


@dataclass
class Outcome:
    """What one repetition produced, beyond its timings."""

    ops: int                       # operations attempted
    failed: int = 0                # of those, failed (all, if truncated)
    digest: str = ""               # sha256 of the simulated statistics
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)   # exact simulated counts
    system: object = None          # live system, for the traced counters


def _sha(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def closed_loop_outcome(result, ops: int, measure_txns: int) -> Outcome:
    """Digest and failure count of a closed-loop ``RunResult``."""
    stats = result.stats
    digest = _sha(repr(result.tps), result.measured,
                  repr(stats.latency.mean), repr(stats.latency.pct(99)),
                  stats.aborted, tuple(sorted(stats.abort_reasons.items())),
                  result.timeouts)
    out = Outcome(ops=ops, digest=digest, system=result.extras.get("system"))
    out.failed = result.timeouts + result.extras.get("warmup_timeouts", 0)
    if result.extras.get("wall_hit"):
        out.problems.append("wall_hit: max_sim_time truncated the run")
    if result.measured != measure_txns:
        out.problems.append(
            f"measured {result.measured} != fixed input {measure_txns}")
    if result.extras.get("serializable_history") is False:
        out.problems.append("serializable isolation admitted anomalies: "
                            f"{result.extras.get('anomalies')}")
    out.counts = {
        "concurrency.aborts": stats.aborted,
        "concurrency.abort_share": stats.abort_rate,
        "workloads.timeouts": result.timeouts,
        "workloads.late_admitted": 0,
        "workloads.dropped": 0,
    }
    return out


@dataclass(frozen=True)
class ClosedLoop:
    """A closed-loop YCSB or SmallBank point, split into set-up and run."""

    name: str
    why: str
    system: str
    clients: int
    records: int                 # YCSB records, or SmallBank accounts
    warmup_txns: int
    measure_txns: int
    theta: float = 0.0
    num_nodes: int = 5
    record_size: int = 1000
    ops_per_txn: int = 1
    mode: str = "update"         # "update" | "query" | "rmw" | "smallbank"
    system_kwargs: tuple = ()
    extras: tuple = ()
    min_reps: int = 3
    warm_up: bool = True

    @property
    def ops(self) -> int:
        return self.warmup_txns + self.measure_txns

    def _scale(self) -> Scale:
        return Scale("ledger", record_count=self.records,
                     warmup_txns=self.warmup_txns,
                     measure_txns=self.measure_txns,
                     max_sim_time=MAX_SIM_TIME)

    def entry_point(self, seed: int) -> Outcome:
        """The users' own call with the same inputs (the warm-up rep)."""
        common = dict(scale=self._scale(), num_nodes=self.num_nodes,
                      theta=self.theta, clients=self.clients, seed=seed,
                      system_kwargs=dict(self.system_kwargs),
                      extras=dict(self.extras))
        if self.mode == "smallbank":
            result = run_smallbank_point(self.system,
                                         num_accounts=self.records, **common)
        else:
            result = run_point(self.system, record_size=self.record_size,
                               ops_per_txn=self.ops_per_txn, mode=self.mode,
                               **common)
        return closed_loop_outcome(result, self.ops, self.measure_txns)

    def setup(self, seed: int, span: Callable):
        with span("setup.build"):
            env = Environment()
            config = SystemConfig(num_nodes=self.num_nodes, seed=seed,
                                  extras=dict(self.extras))
            system = build_system(env, self.system, config,
                                  **dict(self.system_kwargs))
        with span("setup.load"):
            if self.mode == "smallbank":
                workload = SmallbankWorkload(SmallbankConfig(
                    num_accounts=self.records, theta=self.theta,
                    seed=seed + 1))
                maker = workload.next_transaction
            else:
                workload = YcsbWorkload(YcsbConfig(
                    record_count=self.records, record_size=self.record_size,
                    ops_per_txn=self.ops_per_txn, theta=self.theta,
                    seed=seed + 1))
                maker = {"update": workload.next_update,
                         "query": workload.next_query,
                         "rmw": workload.next_rmw}[self.mode]
            system.load(workload.initial_records())
        return env, system, maker

    def drive(self, ctx, span: Callable) -> Outcome:
        env, system, maker = ctx
        with span("run.drive"):
            result = run_closed_loop(env, system, maker, DriverConfig(
                clients=self.clients, warmup_txns=self.warmup_txns,
                measure_txns=self.measure_txns, max_sim_time=MAX_SIM_TIME,
                query_mode=(self.mode == "query")))
        with span("run.analysis"):
            history = getattr(system, "history", None)
            if history is not None:
                report = history.check()
                result.extras["anomalies"] = dict(report.anomalies)
                result.extras["serializable_history"] = report.serializable
        result.extras["system"] = system
        return closed_loop_outcome(result, self.ops, self.measure_txns)


@dataclass(frozen=True)
class OpenLoop:
    """Poisson arrivals at a fixed rate, regardless of completions."""

    name: str
    why: str
    system: str
    rate: float
    duration: float
    warmup: float
    records: int = 10_000
    num_users: int = 1_000_000
    min_reps: int = 3
    warm_up: bool = True
    # No public one-call entry point exists for open-loop runs, so the
    # warm-up repetition takes the split path too.
    entry_point = None

    def setup(self, seed: int, span: Callable):
        with span("setup.build"):
            env = Environment()
            system = build_system(env, self.system,
                                  SystemConfig(num_nodes=5, seed=seed))
        with span("setup.load"):
            workload = YcsbWorkload(YcsbConfig(
                record_count=self.records, record_size=1000, seed=seed + 1))
            system.load(workload.initial_records())
        config = OpenLoopConfig(
            rate=self.rate, duration=self.duration, warmup=self.warmup,
            arrival="poisson", num_users=self.num_users, seed=seed,
            txn_timeout=1.0, max_in_flight=256, admit_queue=2048,
            max_sim_time=30.0)
        return env, system, workload.next_update, config

    def drive(self, ctx, span: Callable) -> Outcome:
        env, system, maker, config = ctx
        with span("run.drive"):
            result = run_open_loop(env, system, maker, config)
        with span("run.analysis"):
            # the percentile sort is what an open-loop report pays for
            digest = result.result_digest()
        out = Outcome(ops=result.extras["arrivals_total"], digest=digest,
                      system=system)
        out.failed = result.timeouts + result.dropped
        if result.extras.get("wall_hit"):
            out.problems.append("wall_hit: max_sim_time truncated the run")
        out.counts = {
            "concurrency.aborts": result.aborted,
            "concurrency.abort_share":
                result.aborted / result.completed if result.completed else 0.0,
            "workloads.timeouts": result.timeouts,
            "workloads.late_admitted": result.late_admitted,
            "workloads.dropped": result.dropped,
        }
        return out


_IMPORT_GRID = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro.bench.experiments, repro.chaos; "
    "from repro.bench.harness import SMOKE; "
    "from repro.bench.sweep import enumerate_grid; "
    "assert len(enumerate_grid(SMOKE, ['fingerprints'])) == 30")


@dataclass(frozen=True)
class PinsGrid:
    """The 27 pinned ``RunResult`` points + 3 chaos digests, as users run
    them: one verified ``run_sweep`` pass.  Ignores the seed — its inputs
    are the registry's.  A pin mismatch fails every point of the pass.

    The points build their own systems, so this workload's set-up is
    what precedes the first point: a fresh interpreter importing the
    package and enumerating the grid.  A full pass costs as much as three
    repetitions of the other workloads, so no pass is thrown away as
    warm-up: the grid's modules are imported before timing instead.
    """

    name: str
    why: str
    points: int = 30
    min_reps: int = 2
    warm_up: bool = False
    entry_point = None

    def setup(self, seed: int, span: Callable):
        with span("setup.build"):
            subprocess.run([sys.executable, "-c", _IMPORT_GRID, str(SRC)],
                           check=True, timeout=120)
        import repro.bench.experiments   # noqa: F401  (before the timed pass)
        import repro.chaos               # noqa: F401
        return None

    def drive(self, ctx, span: Callable) -> Outcome:
        out = Outcome(ops=self.points)
        silent = io.StringIO()
        with span("run.drive"), contextlib.redirect_stderr(silent):
            try:
                report = run_sweep(scale=SMOKE, jobs=1,
                                   figures=["fingerprints"], verify=True,
                                   progress=lambda line: None)
            except SweepMismatch as exc:
                out.problems.append(f"SweepMismatch: {exc}")
                return out
        if report["points"] != self.points \
                or report["verified"] != self.points:
            out.problems.append(
                f"verified {report['verified']}/{report['points']} points, "
                f"expected {self.points}/{self.points}")
        observed = report["artifacts"]["fingerprints"]["observed"]
        out.digest = _sha(sorted(observed.items(), key=lambda kv: kv[0]))
        return out


WORKLOADS = (
    ClosedLoop(
        name="fabric_10k_update",
        why="10k closed-loop clients on the slowest blockchain path: "
            "kernel dispatch, resources, driver slots and memory dominate; "
            "adt and storage idle.",
        system="fabric", clients=10_000, records=10_000,
        warmup_txns=300, measure_txns=1_600),
    ClosedLoop(
        name="tidb_rmw_skew",
        why="Slowest database point: percolator 2PC over multi-Raft puts "
            "consensus and network on the path; Zipf 0.8 drives the "
            "abort/retry path of concurrency.",
        system="tidb", clients=256, records=10_000,
        warmup_txns=300, measure_txns=1_100, theta=0.8,
        mode="rmw", ops_per_txn=2),
    ClosedLoop(
        name="quorum_smallbank_mpt",
        why="Only workload where the MPT, hashing and the serializability "
            "history check dominate and the kernel is small; set-up is "
            "storage-bound.",
        system="quorum", clients=400, records=20_000,
        warmup_txns=300, measure_txns=6_000, theta=0.9, mode="smallbank",
        extras=(("index", "lsm+mpt"), ("isolation", "serializable"))),
    OpenLoop(
        name="etcd_openloop_poisson",
        why="Open loop: Poisson arrivals at etcd's nominal 15k/s through "
            "the open-loop driver, timing wheel and percentile metrics; "
            "same Raft path as a closed-loop run.",
        system="etcd", rate=15_000.0, duration=0.8, warmup=0.2),
    ClosedLoop(
        name="tikv_query_zipf",
        why="Read-only beside the write workloads: no consensus, no "
            "network; Zipf 0.99 key generation and storage reads show, so "
            "a write-path gain must not move it.",
        system="tikv", clients=256, records=10_000,
        warmup_txns=300, measure_txns=28_000, theta=0.99, mode="query"),
    ClosedLoop(
        name="ahl_64shard_rmw",
        why="The 64-shard point (192 nodes): the only workload that runs "
            "sharding (2PC over BFT shards) and, in its traced run, the "
            "parallel kernel.",
        system="ahl", clients=512, records=10_000, num_nodes=192,
        warmup_txns=300, measure_txns=9_000, mode="rmw", ops_per_txn=2,
        system_kwargs=(("shard_lookahead", True),)),
    PinsGrid(
        name="pins_grid",
        why="Reproduce-the-figures use: 30 short set-up-dominated pinned "
            "points over 9 systems, chaos and three isolation levels; a "
            "pin mismatch is a failed operation."),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def parallel_pair(workload: ClosedLoop, seed: int,
                  measure_txns: int) -> dict:
    """One serial/parallel pair of the AHL point; byte-identity asserted.

    Returns the pair's walls and the parallel kernel's telemetry.
    """
    scale = workload._scale().derive(measure_txns=measure_txns)
    walls, digests, kernel = {}, {}, {}
    for arm, kwargs in (("serial", {"shard_lookahead": True}),
                        ("parallel", {"parallel": True})):
        start = time.perf_counter()
        result = run_point(workload.system, scale=scale,
                           num_nodes=workload.num_nodes,
                           clients=workload.clients, seed=seed,
                           mode=workload.mode,
                           ops_per_txn=workload.ops_per_txn,
                           theta=workload.theta, system_kwargs=kwargs)
        walls[arm] = time.perf_counter() - start
        digests[arm] = closed_loop_outcome(
            result, workload.warmup_txns + measure_txns, measure_txns).digest
        if arm == "parallel":
            kernel = dict(result.extras["parallel_kernel"])
    if digests["serial"] != digests["parallel"]:
        raise AssertionError("parallel kernel diverged from serial "
                             f"lookahead: {digests}")
    return {"walls": walls, "kernel": kernel}
