"""Experiment harness: one-call runs of (system, workload, cluster) points.

Every figure/table reproduction in :mod:`repro.bench.experiments` is a
sweep over calls to :func:`run_point`.  A ``Scale`` bundles the knobs
that trade fidelity for wall-clock time: tests use ``SMOKE``, the bench
suite uses ``BENCH``, and ``PAPER`` approaches the paper's measurement
sizes (minutes of wall-clock per point).

The grid is *declarative*: every figure enumerates its measurement
points as picklable :class:`PointSpec` records and folds the finished
:class:`PointResult` values back into its artifact dict; the engine in
:mod:`repro.bench.sweep` runs those point tables in-process or across
worker processes with byte-identical merged output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.builder import build_system
from ..sim.kernel import Environment
from ..systems.base import SystemConfig
from ..workloads.driver import DriverConfig, RunResult, run_closed_loop, \
    run_closed_loop_windowed
from ..workloads.smallbank import SmallbankConfig, SmallbankWorkload
from ..workloads.ycsb import YcsbConfig, YcsbWorkload

__all__ = ["Scale", "SMOKE", "BENCH", "PAPER", "run_point",
           "run_smallbank_point", "PointSpec", "PointResult", "run_spec"]

#: Closed-loop client counts that saturate each system model.
DEFAULT_CLIENTS = {
    "etcd": 256, "tikv": 256, "tidb": 256, "quorum": 400, "fabric": 2000,
    "spanner": 256, "ahl": 512,
    "veritas": 256, "chainifydb": 256, "brd": 256, "bigchaindb": 512,
    "falcondb": 256, "blockchaindb": 2048,
}


@dataclass(frozen=True)
class Scale:
    """Measurement size (trading fidelity for wall-clock)."""

    name: str
    record_count: int
    warmup_txns: int
    measure_txns: int
    max_sim_time: float

    def derive(self, **kw) -> "Scale":
        return replace(self, **kw)


SMOKE = Scale("smoke", record_count=2_000, warmup_txns=50,
              measure_txns=300, max_sim_time=60.0)
BENCH = Scale("bench", record_count=10_000, warmup_txns=300,
              measure_txns=2_000, max_sim_time=180.0)
PAPER = Scale("paper", record_count=100_000, warmup_txns=1_000,
              measure_txns=10_000, max_sim_time=600.0)


def _attach_history(result: RunResult, sys_obj, templates) -> None:
    """Fold the run's anomaly report into picklable extras.

    Systems with a weakened-isolation path create a history checker
    iff the config carries an ``isolation`` key, so default runs skip
    this entirely and runs on the spectrum report what the chosen level
    admitted, beside the anomaly class the certifier predicts for the
    workload's ``templates()`` at that level (``None``: robust).
    """
    if sys_obj.history is not None:
        from ..analysis.robustness import certify
        report = sys_obj.history.check()
        result.extras["anomalies"] = dict(report.anomalies)
        result.extras["serializable_history"] = report.serializable
        result.extras["predicted_anomaly"] = certify(
            templates(), sys_obj.isolation).predicted_anomaly


def run_point(
    system: str,
    scale: Scale = BENCH,
    num_nodes: int = 5,
    record_size: int = 1000,
    theta: float = 0.0,
    ops_per_txn: int = 1,
    mode: str = "update",
    fix_total_size: bool = False,
    clients: Optional[int] = None,
    seed: int = 0,
    measure_txns: Optional[int] = None,
    system_kwargs: Optional[dict] = None,
    costs=None,
    extras: Optional[dict] = None,
) -> RunResult:
    """Run one YCSB measurement point and return its :class:`RunResult`.

    ``extras`` lands in ``SystemConfig.extras`` — e.g.
    ``extras={"index": "lsm+mpt"}`` swaps the system's storage engine,
    ``extras={"wal": True}`` enables the group-committed WAL.
    """
    if mode not in YcsbWorkload.MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from "
                         f"{', '.join(YcsbWorkload.MODES)}")
    env = Environment()
    if costs is not None:
        config = SystemConfig(num_nodes=num_nodes, seed=seed, costs=costs,
                              extras=extras or {})
    else:
        config = SystemConfig(num_nodes=num_nodes, seed=seed,
                              extras=extras or {})
    sys_obj = build_system(env, system, config, **(system_kwargs or {}))
    workload = YcsbWorkload(YcsbConfig(
        record_count=scale.record_count,
        record_size=record_size,
        ops_per_txn=ops_per_txn,
        theta=theta,
        fix_total_size=fix_total_size,
        seed=seed + 1,
    ))
    sys_obj.load(workload.initial_records())
    maker = getattr(workload, YcsbWorkload.MODES[mode])
    n_clients = clients if clients is not None \
        else DEFAULT_CLIENTS.get(system, 256)
    driver = DriverConfig(
        clients=n_clients,
        warmup_txns=scale.warmup_txns,
        measure_txns=measure_txns if measure_txns is not None
        else scale.measure_txns,
        max_sim_time=scale.max_sim_time,
        query_mode=(mode == "query"),
    )
    coupler = getattr(sys_obj, "coupler", None)
    if coupler is not None:
        # Conservative-parallel build (e.g. ahl with parallel=True): the
        # shard pipelines live in worker processes, so the clock must
        # advance in lookahead windows with barriers around each.
        result = run_closed_loop_windowed(env, sys_obj, maker, coupler,
                                          driver)
    else:
        result = run_closed_loop(env, sys_obj, maker, driver)
    result.extras["system"] = sys_obj
    _attach_history(result, sys_obj, lambda: workload.templates(mode))
    return result


def run_smallbank_point(
    system: str,
    scale: Scale = BENCH,
    num_nodes: int = 5,
    num_accounts: int = 100_000,
    theta: float = 1.0,
    query_proportion: float = 0.0,
    clients: Optional[int] = None,
    seed: int = 0,
    system_kwargs: Optional[dict] = None,
    extras: Optional[dict] = None,
) -> RunResult:
    """Run one Smallbank measurement point (Fig. 6).

    ``query_proportion`` mixes in read-only Balance transactions — the
    third leg of the classic snapshot-isolation read-only anomaly;
    ``extras`` lands in ``SystemConfig.extras`` (isolation level, engine
    choice, ...).
    """
    env = Environment()
    config = SystemConfig(num_nodes=num_nodes, seed=seed,
                          extras=extras or {})
    sys_obj = build_system(env, system, config, **(system_kwargs or {}))
    workload = SmallbankWorkload(SmallbankConfig(
        num_accounts=num_accounts, theta=theta,
        query_proportion=query_proportion, seed=seed + 1))
    sys_obj.load(workload.initial_records())
    n_clients = clients if clients is not None \
        else DEFAULT_CLIENTS.get(system, 256)
    driver = DriverConfig(
        clients=n_clients,
        warmup_txns=scale.warmup_txns,
        measure_txns=scale.measure_txns,
        max_sim_time=scale.max_sim_time,
    )
    result = run_closed_loop(env, sys_obj, workload.next_transaction, driver)
    result.extras["system"] = sys_obj
    _attach_history(result, sys_obj, workload.templates)
    return result


# ---------------------------------------------------------------------------
# Declarative sweep points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSpec:
    """One measurement point of the figure grid, as picklable data.

    A spec is everything a worker process needs to make one exact
    ``run_point`` / ``run_smallbank_point`` / inline-artifact call: the
    runner kind, the system, the :class:`Scale`, and the keyword
    arguments (``params``) in canonical ``(name, value)`` pair form.
    ``figure``/``key`` locate the result in
    the assembled artifact dict; ``weight`` is a relative wall-cost
    estimate used for longest-job-first scheduling.  ``no_fork`` marks a
    point that must run in the sweep's parent process — set for points
    that spawn shard-worker processes themselves (``parallel=True``
    builds), which a daemonic ``--jobs`` pool worker cannot host.
    """

    figure: str
    key: tuple
    runner: str = "ycsb"       # "ycsb" | "smallbank" | "inline" | "chaos"
    system: str = ""
    scale: Optional[Scale] = None
    params: tuple = ()         # ((name, value), ...) runner kwargs
    fn: str = ""               # inline runner: experiments.<fn> to call
    weight: float = 1.0
    no_fork: bool = False      # run in the sweep parent, never a pool worker

    def kwargs(self) -> dict:
        return dict(self.params)

    @property
    def label(self) -> str:
        bits = "/".join(str(k) for k in self.key)
        return f"{self.figure}:{bits}" if bits else self.figure


@dataclass
class PointResult:
    """Picklable outcome of one executed :class:`PointSpec`.

    Carries every field the figure assemblers read (so the live
    ``RunResult`` — whose ``extras['system']`` holds the unpicklable
    simulated cluster — never crosses a process boundary) plus the
    seeded-fingerprint projection used by the sweep verifier.
    """

    figure: str
    key: tuple
    wall_s: float = 0.0
    tps: float = 0.0
    measured: int = 0
    elapsed: float = 0.0
    timeouts: int = 0
    committed: int = 0
    aborted: int = 0
    abort_rate: float = 0.0
    mean_latency: float = 0.0
    abort_reasons: dict = field(default_factory=dict)
    phase_means: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)   # inline/chaos output

    @property
    def fingerprint(self) -> dict:
        """The exact projection the seeded fingerprint registry pins."""
        return {"tps": repr(self.tps), "measured": self.measured,
                "latency": repr(self.mean_latency), "aborted": self.aborted}


def _reset_run_counters() -> None:
    """Zero the process-global transaction id counter before a point runs.

    Transaction ids are identity-only (no simulation semantics), but
    resetting them per point makes every point's id sequence
    independent of which points ran earlier in the process — the
    property that lets a sweep farm points to workers in any order and
    still merge a trajectory byte-identical to a serial run.
    """
    from ..txn import transaction
    transaction._txn_counter = itertools.count(1)


def _portable_result(spec: PointSpec, result: RunResult,
                     wall_s: float) -> PointResult:
    payload: dict = {}
    if "anomalies" in result.extras:
        payload["anomalies"] = result.extras["anomalies"]
        payload["serializable_history"] = \
            result.extras["serializable_history"]
        payload["predicted_anomaly"] = result.extras["predicted_anomaly"]
    if result.extras.get("wall_hit"):
        # Truncated by the max_sim_time wall: surfaced so an undersized
        # point can't masquerade as a full measurement downstream.
        payload["wall_hit"] = True
    return PointResult(
        figure=spec.figure, key=spec.key, wall_s=round(wall_s, 4),
        tps=result.tps, measured=result.measured, elapsed=result.elapsed,
        timeouts=result.timeouts, committed=result.stats.committed,
        aborted=result.stats.aborted, abort_rate=result.abort_rate,
        mean_latency=result.stats.latency.mean,
        abort_reasons=dict(result.stats.abort_reasons),
        phase_means=result.phase_means(),
        payload=payload)


def run_spec(spec: PointSpec) -> PointResult:
    """Execute one :class:`PointSpec` and return its portable result.

    This is the unit of work of the figure engine, whether it runs
    in-process or in a pool worker.
    """
    import time
    _reset_run_counters()
    start = time.perf_counter()
    if spec.runner == "ycsb":
        result = run_point(spec.system, scale=spec.scale, **spec.kwargs())
        return _portable_result(spec, result, time.perf_counter() - start)
    if spec.runner == "smallbank":
        result = run_smallbank_point(spec.system, scale=spec.scale,
                                     **spec.kwargs())
        return _portable_result(spec, result, time.perf_counter() - start)
    if spec.runner == "inline":
        from . import experiments
        payload = getattr(experiments, spec.fn)(**spec.kwargs())
        return PointResult(figure=spec.figure, key=spec.key,
                           wall_s=round(time.perf_counter() - start, 4),
                           payload=payload)
    if spec.runner == "chaos":
        from .fingerprints import run_chaos_spec
        return run_chaos_spec(spec, start)
    raise ValueError(f"unknown runner {spec.runner!r}")
