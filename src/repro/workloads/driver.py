"""Closed-loop benchmark driver (the Caliper / YCSB-driver / OLTPBench role).

``run_closed_loop`` drives N closed-loop clients against a system; each
client submits the next workload transaction, waits for its fate, and
moves on.  Throughput is measured over a post-warm-up window of committed
transactions; latency and abort statistics mirror what the paper's
drivers report.

Clients are *multiplexed*: instead of one generator coroutine per client
(10k clients = 10k live frames resumed through the process trampoline),
clients are grouped into cohorts of explicit state-machine slots
(:class:`_ClientSlot`) driven entirely by event callbacks.  A slot issues
the identical schedule sequence the old client generator did — same
bootstrap callback, same stagger timer, same submit/timeout/AnyOf per
transaction — so seeded runs are byte-identical, but a 10k-client run
costs 10k tiny objects and zero generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..sim.kernel import Environment, Event
from ..sim.metrics import TxnStats
from ..txn.transaction import Transaction, TxnStatus

__all__ = ["DriverConfig", "RunResult", "run_closed_loop",
           "run_closed_loop_windowed"]

class _ClientCohort:
    """The client-multiplexer context shared by every slot of a run.

    Slots are driven by callbacks (no process per client and none per
    cohort either), so the cohort's job is purely to hold the run-wide
    driver state each slot transition reads — one object dereference per
    wake instead of six captured closure cells per client.
    """

    __slots__ = ("env", "submit", "next_txn", "txn_timeout", "state",
                 "record", "slots", "think_time")

    def __init__(self, env: Environment, submit: Callable, next_txn: Callable,
                 txn_timeout: float, state: dict, record: Callable,
                 think_time: float = 0.0):
        self.env = env
        self.submit = submit
        self.next_txn = next_txn
        self.txn_timeout = txn_timeout
        self.state = state
        self.record = record
        self.think_time = think_time
        self.slots: list[_ClientSlot] = []


class _ClientSlot:
    """One closed-loop client as an explicit state machine.

    State transitions mirror the retired client generator exactly:
    bootstrap (same ``_schedule_call`` position a ``Process`` bootstrap
    used), optional stagger timer, then a submit → wait-fate → record
    loop where the wait parks one callback on an ``AnyOf(fate, timer)``.
    An infrastructure failure delivered through the AnyOf (the generator
    form's ``except Exception: continue``) moves straight to the next
    transaction.
    """

    __slots__ = ("cohort", "name", "stagger", "txn", "ev", "timer")

    def __init__(self, cohort: _ClientCohort, name: str, stagger: float):
        self.cohort = cohort
        self.name = name
        self.stagger = stagger
        self.txn: Optional[Transaction] = None
        self.ev: Optional[Event] = None
        self.timer = None

    def _bootstrap(self, _arg) -> None:
        if self.stagger > 0:
            timer = self.cohort.env.timeout(self.stagger)
            timer.callbacks.append(self._staggered)
        else:
            self._next()

    def _staggered(self, _ev: Event) -> None:
        self._next()

    def _next(self) -> None:
        """Submit transactions until parked on a fate, or the run is done."""
        cohort = self.cohort
        env = cohort.env
        state = cohort.state
        if state["done"]:
            self.txn = self.ev = self.timer = None
            return
        txn = cohort.next_txn(self.name)
        ev = cohort.submit(txn)
        timer = env.timeout(cohort.txn_timeout)
        fate = env.any_of([ev, timer])
        self.txn, self.ev, self.timer = txn, ev, timer
        fate.callbacks.append(self._woke)

    def _woke(self, fate: Event) -> None:
        # Withdraw the losing timer so completed transactions don't each
        # leave a dead heap entry behind for txn_timeout seconds.
        self.timer.cancel()
        cohort = self.cohort
        ev = self.ev
        if fate._ok:
            if not ev._triggered:
                # Count timeouts observed before measurement completed;
                # post-measurement stragglers are not part of the result.
                # Warm-up-phase timeouts are tallied separately — every
                # other statistic is measured-window-only, and a slow
                # warm-up must not masquerade as measured-window loss.
                state = cohort.state
                if not state["done"]:
                    if state["warmup_active"]:
                        state["warmup_timeouts"] += 1
                    else:
                        state["timeouts"] += 1
            elif ev._ok:
                cohort.record(self.txn)
        if cohort.think_time > 0.0:
            # Paced (open-ish) client: think before the next submission.
            # Zero by default — the historical fully-closed loop issues
            # the identical event sequence when no think time is set.
            cohort.env.timeout(cohort.think_time).callbacks.append(
                self._staggered)
        else:
            self._next()


@dataclass
class DriverConfig:
    clients: int = 64
    # Completions 1..warmup_txns-1 are warm-up and discarded; the
    # measurement clock starts when the last warm-up transaction completes
    # (at run start for warmup_txns <= 1), and completion number
    # warmup_txns is the first *measured* transaction.
    warmup_txns: int = 200
    measure_txns: int = 2000
    max_sim_time: float = 600.0
    txn_timeout: float = 60.0      # per-transaction client timeout
    query_mode: bool = False       # route via submit_query
    think_time: float = 0.0        # pause between a client's transactions;
    #                                chaos runs pace load with this so a
    #                                multi-second fault schedule doesn't
    #                                mean simulating 10^5 transactions


@dataclass
class RunResult:
    """Outcome of one measured run."""

    tps: float
    stats: TxnStats
    elapsed: float
    measured: int
    timeouts: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def abort_rate(self) -> float:
        return self.stats.abort_rate

    @property
    def mean_latency(self) -> float:
        return self.stats.latency.mean

    def phase_means(self) -> dict[str, float]:
        return {name: rec.mean
                for name, rec in self.stats.phase_latency.items()}


class _RunHandle:
    """Everything a driver loop needs between set-up and the result.

    Produced by :func:`prepare_closed_loop`; consumed by
    :func:`finalize_closed_loop` once the simulation has been advanced —
    in one ``env.run`` for the serial path, or window by window for the
    conservative-parallel path.  Every statistic lives in ``state`` /
    ``stats`` and is guarded by ``state["done"]``, so *how far past* the
    finish point the simulation runs cannot change the result.
    """

    __slots__ = ("env", "cfg", "stats", "state", "finished",
                 "watchdog_proc")

    def __init__(self, env, cfg, stats, state, finished, watchdog_proc):
        self.env = env
        self.cfg = cfg
        self.stats = stats
        self.state = state
        self.finished = finished
        self.watchdog_proc = watchdog_proc


def prepare_closed_loop(
    env: Environment,
    system,
    next_txn: Callable[[str], Transaction],
    config: Optional[DriverConfig] = None,
) -> _RunHandle:
    """Set up clients, stats, and the watchdog; do not advance the clock.

    ``next_txn(client_name)`` produces the next transaction for a client.
    The run finishes when ``measure_txns`` post-warm-up completions are
    recorded (or the safety wall of ``max_sim_time`` is hit).
    """
    cfg = config or DriverConfig()
    stats = TxnStats()
    state = {
        "completed": 0,
        "run_started_at": env.now,
        "measure_started_at": None,
        "measure_count": 0,
        "measure_committed": 0,
        "timeouts": 0,
        "warmup_timeouts": 0,
        # True while completions are still warm-up; runs without a
        # warm-up phase (warmup_txns <= 1) have no warm-up timeouts.
        "warmup_active": cfg.warmup_txns > 1,
        "done": False,
        "finished_at": None,
    }
    finished = env.event()

    def record(txn: Transaction) -> None:
        state["completed"] += 1
        if state["measure_started_at"] is None:
            last_warmup = cfg.warmup_txns - 1
            if state["completed"] <= last_warmup:
                if state["completed"] == last_warmup:
                    # The last warm-up completion starts the measurement
                    # clock; the *next* completion is the first measured.
                    state["measure_started_at"] = env.now
                    state["warmup_active"] = False
                return
            # warmup_txns <= 1: no warm-up phase — the window covers the
            # whole run and this very completion is measured.
            state["measure_started_at"] = state["run_started_at"]
        if state["done"]:
            return
        state["measure_count"] += 1
        latency = env.now - txn.submitted_at
        if txn.status is TxnStatus.COMMITTED:
            state["measure_committed"] += 1
            stats.commit(latency)
        else:
            stats.abort(txn.abort_reason.value if txn.abort_reason
                        else "unknown")
        for phase, duration in txn.phases.items():
            stats.record_phase(phase, duration)
        if state["measure_count"] >= cfg.measure_txns:
            state["done"] = True
            state["finished_at"] = env.now
            if not finished.triggered:
                finished.succeed()

    # Cohort multiplexer: clients are state-machine slots, not processes.
    # Bootstrap callbacks are scheduled in client order — the identical
    # position the per-client Process bootstraps occupied — and start-up
    # is staggered so closed-loop clients don't convoy in lockstep.
    submit = system.submit_query if cfg.query_mode else system.submit
    cohort = _ClientCohort(env, submit, next_txn, cfg.txn_timeout, state,
                           record, think_time=cfg.think_time)
    for i in range(cfg.clients):
        slot = _ClientSlot(cohort, f"client-{i}", i * 0.0003)
        cohort.slots.append(slot)
        env._schedule_call(slot._bootstrap, None)

    def watchdog():
        wall = env.timeout(cfg.max_sim_time)
        yield env.any_of([finished, wall])
        wall.cancel()
        state["done"] = True
        if state["finished_at"] is None:
            state["finished_at"] = env.now

    watchdog_proc = env.process(watchdog(), name="driver-watchdog")
    return _RunHandle(env, cfg, stats, state, finished, watchdog_proc)


def finalize_closed_loop(handle: _RunHandle) -> RunResult:
    """Assemble the :class:`RunResult` from a finished run's state."""
    env = handle.env
    state = handle.state
    stats = handle.stats
    started = state["measure_started_at"]
    ended = state["finished_at"] if state["finished_at"] is not None else env.now
    extras: dict = {}
    if state["warmup_timeouts"]:
        extras["warmup_timeouts"] = state["warmup_timeouts"]
    if not handle.finished.triggered:
        # The max_sim_time wall fired before measure_txns completions: the
        # run is truncated, and an undersized point must not masquerade as
        # a full one.
        extras["wall_hit"] = True
    if started is None or ended <= started:
        return RunResult(tps=0.0, stats=stats, elapsed=0.0,
                         measured=state["measure_count"],
                         timeouts=state["timeouts"], extras=extras)
    elapsed = ended - started
    # Throughput is *goodput*: committed transactions per second (what
    # Caliper/YCSB report as successful-operation throughput).
    extras["completed_tps"] = state["measure_count"] / elapsed
    return RunResult(
        tps=state["measure_committed"] / elapsed,
        stats=stats,
        elapsed=elapsed,
        measured=state["measure_count"],
        timeouts=state["timeouts"],
        extras=extras,
    )


def run_closed_loop(
    env: Environment,
    system,
    next_txn: Callable[[str], Transaction],
    config: Optional[DriverConfig] = None,
) -> RunResult:
    """Drive ``system`` with closed-loop clients and measure steady state.

    ``next_txn(client_name)`` produces the next transaction for a client.
    The run finishes when ``measure_txns`` post-warm-up completions are
    recorded (or the safety wall of ``max_sim_time`` is hit).
    """
    handle = prepare_closed_loop(env, system, next_txn, config)
    cfg = handle.cfg
    # Stop simulating as soon as the watchdog fires: every statistic in the
    # RunResult is final by then, and draining the remaining event horizon
    # (idle consensus timers, heartbeats, stragglers) is pure wall-clock
    # waste — it used to dominate short runs.
    env.run(until=cfg.max_sim_time + cfg.txn_timeout + 1.0,
            stop=handle.watchdog_proc)
    return finalize_closed_loop(handle)


def run_closed_loop_windowed(
    env: Environment,
    system,
    next_txn: Callable[[str], Transaction],
    coupler,
    config: Optional[DriverConfig] = None,
) -> RunResult:
    """Closed-loop measurement in conservative-lookahead windows.

    Same clients, same watchdog, same result assembly as
    :func:`run_closed_loop`, but the clock advances one lookahead window
    at a time with a :class:`~repro.sim.parallel.ShardCoupler` barrier
    around each: completions due in the window are injected before it
    runs, requests generated during it are flushed to the shard workers
    after.  The run ends at the first window boundary past the finish
    point; the ``state["done"]`` guards make the extra tail a no-op for
    the result, so the returned :class:`RunResult` is byte-identical to
    the single-heap lookahead run's.
    """
    handle = prepare_closed_loop(env, system, next_txn, config)
    cfg = handle.cfg
    state = handle.state
    # The barrier period: couplers with a staggered protocol expose a
    # stride larger than the one-hop lookahead window.
    window = getattr(coupler, "stride", coupler.window)
    horizon = cfg.max_sim_time + cfg.txn_timeout + 1.0
    boundary = 0.0
    try:
        while not state["done"] and boundary < horizon:
            boundary += window
            coupler.begin_window(boundary)
            env.run(until=boundary)
            if state["done"]:
                break
            coupler.end_window(boundary)
    finally:
        coupler.shutdown()
    result = finalize_closed_loop(handle)
    stats = getattr(coupler, "stats", None)
    if stats is not None:
        # Kernel telemetry (barrier counts, elision, byte volumes,
        # wall-clock barrier wait).  Outside the fingerprint projection:
        # some fields depend on worker-pool size, i.e. the box.
        result.extras["parallel_kernel"] = dict(stats)
    return result
