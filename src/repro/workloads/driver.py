"""Closed-loop benchmark driver (the Caliper / YCSB-driver / OLTPBench role).

``run_closed_loop`` drives N closed-loop clients against a system; each
client submits the next workload transaction, waits for its fate, and
moves on.  Throughput is measured over a post-warm-up window of committed
transactions; latency and abort statistics mirror what the paper's
drivers report.

Clients are *multiplexed*: instead of one generator coroutine per client
(10k clients = 10k live frames resumed through the process trampoline),
clients are explicit state-machine slots (:class:`_ClientSlot`) driven
entirely by event callbacks, sharing one :class:`_ClosedLoopRun` and
its :class:`DeadlineQueue`, so a 10k-client run costs 10k tiny objects,
zero generators and, while no client times out, one timer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..sim.kernel import Environment, Event
from ..sim.metrics import TxnStats
from ..txn.transaction import Transaction, TxnStatus

__all__ = ["DriverConfig", "RunResult", "run_closed_loop",
           "run_closed_loop_windowed"]


class DeadlineQueue:
    """Every client timeout of one run, behind one kernel timer.

    The timeout is one constant per run, so a FIFO of ``(deadline, slot,
    gen)`` is sorted by construction.  One ``timeout_at`` timer, aimed at
    the oldest entry, hands the due entries whose slot still has the
    filed ``gen`` to ``expire(slot)`` and re-aims at the next.  A slot
    withdraws its entry by bumping ``gen``: no cancel, no heap traffic.
    """

    __slots__ = ("env", "timeout", "expire", "entries", "timer")

    def __init__(self, env: Environment, timeout: float,
                 expire: Callable[[object], None]):
        if not timeout > 0:
            # zero: a closed loop would resubmit at one instant forever
            raise ValueError(f"txn_timeout must be positive: {timeout!r}")
        self.env = env
        self.timeout = timeout
        self.expire = expire
        self.entries: deque = deque()
        self.timer: Optional[Event] = None   # armed while entries remain

    def push(self, slot) -> None:
        deadline = self.env.now + self.timeout
        self.entries.append((deadline, slot, slot.gen))
        if self.timer is None:
            self._arm(deadline)

    def _arm(self, deadline: float) -> None:
        # the stored float at priority 0: where timeout(txn_timeout) fired
        timer = self.timer = self.env.timeout_at(deadline)
        timer.callbacks.append(self._fire)

    def _fire(self, _timer) -> None:
        # self.timer stays set while expire() runs, so a push from it
        # (the open loop admitting a queued arrival) does not re-arm.
        entries = self.entries
        now = self.env.now
        while entries:
            deadline, slot, gen = entries[0]
            if slot.gen != gen:
                entries.popleft()
            elif deadline <= now:
                entries.popleft()
                self.expire(slot)
            else:
                self._arm(deadline)
                return
        self.timer = None


class _ClientSlot:
    """One closed-loop client as an explicit state machine.

    Bootstrap (same ``_schedule_call`` position a ``Process`` bootstrap
    used), optional stagger timer, then submit -> wait -> record.  The
    submitted event or the run's deadline, whichever settles first,
    withdraws the other and reaches :meth:`_woke` one heap trip later,
    the position a joined fate event would have dispatched at.
    """

    __slots__ = ("run", "name", "stagger", "txn", "ev", "gen")

    def __init__(self, run: "_ClosedLoopRun", name: str, stagger: float):
        self.run = run
        self.name = name
        self.stagger = stagger
        self.txn: Optional[Transaction] = None
        self.ev: Optional[Event] = None
        self.gen = 0

    def _bootstrap(self, _arg) -> None:
        if self.stagger > 0:
            self.run.env.after(self.stagger, self._next)
        else:
            self._next()

    def _next(self, _arg=None) -> None:
        """Submit the next transaction and wait for its fate."""
        run = self.run
        if run.done:
            self.txn = None
            return
        txn = self.txn = run.next_txn(self.name)
        ev = run.submit(txn)
        if ev._triggered:
            # Settled (or even dispatched) before the wait began.
            run.env.after(0.0, self._woke, ev)
            return
        self.ev = ev
        run.deadlines.push(self)
        ev.callbacks.append(self._completed)

    def _completed(self, ev: Event) -> None:
        if ev is self.ev:          # else it already expired: ignored
            self._settle()

    def _settle(self) -> None:         # completion, failure or expiry
        ev = self.ev
        self.ev = None
        self.gen += 1
        self.run.env.after(0.0, self._woke, ev)

    def _woke(self, ev: Event) -> None:
        # ev is read here, not when it settled: a completion that lands
        # at the deadline instant, before this heap trip, still counts.
        run = self.run
        if not ev._triggered:
            # Stragglers after measurement are not part of the result;
            # warm-up ones are tallied apart, as every other statistic
            # is measured-window-only.
            if not run.done:
                if run.warmup_active:
                    run.warmup_timeouts += 1
                else:
                    run.timeouts += 1
        elif ev._ok:
            run.record(self.txn)
        elif not run.done:
            run.submit_errors += 1     # e.g. a leader failover
        think_time = run.cfg.think_time
        if think_time > 0.0:
            # Paced (open-ish) client: think before the next submission.
            run.env.after(think_time, self._next)
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


class _ClosedLoopRun:
    """One closed-loop run: its clients, counters and result.

    Construction schedules the client bootstraps and does not advance
    the clock; :func:`run_closed_loop` and
    :func:`run_closed_loop_windowed` are the two ways of advancing it.
    Every statistic is guarded by ``done``, so *how far past* the finish
    point the simulation runs cannot change the result.
    """

    __slots__ = ("env", "cfg", "submit", "next_txn", "deadlines", "stats",
                 "finished", "started_at", "measure_started_at",
                 "finished_at", "completed", "measure_count",
                 "measure_committed", "timeouts", "warmup_timeouts",
                 "submit_errors", "warmup_active", "done")

    def __init__(self, env: Environment, system, next_txn: Callable,
                 cfg: DriverConfig):
        self.deadlines = DeadlineQueue(env, cfg.txn_timeout,
                                       _ClientSlot._settle)
        self.env = env
        self.cfg = cfg
        self.submit = system.submit_query if cfg.query_mode \
            else system.submit
        self.next_txn = next_txn
        self.stats = TxnStats()
        self.finished = env.event()
        self.started_at = env.now
        self.measure_started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.completed = 0
        self.measure_count = 0
        self.measure_committed = 0
        self.timeouts = 0
        self.warmup_timeouts = 0
        self.submit_errors = 0
        # True while completions are still warm-up; runs without a
        # warm-up phase (warmup_txns <= 1) have no warm-up timeouts.
        self.warmup_active = cfg.warmup_txns > 1
        self.done = False
        # Clients are state-machine slots, not processes.  Bootstrap
        # callbacks are scheduled in client order — the identical
        # position the per-client Process bootstraps occupied — and
        # start-up is staggered so clients don't convoy in lockstep.
        for i in range(cfg.clients):
            slot = _ClientSlot(self, f"client-{i}", i * 0.0003)
            env._schedule_call(slot._bootstrap, None)

    def record(self, txn: Transaction) -> None:
        self.completed += 1
        if self.measure_started_at is None:
            last_warmup = self.cfg.warmup_txns - 1
            if self.completed <= last_warmup:
                if self.completed == last_warmup:
                    # The last warm-up completion starts the measurement
                    # clock; the *next* completion is the first measured.
                    self.measure_started_at = self.env.now
                    self.warmup_active = False
                return
            # warmup_txns <= 1: no warm-up phase — the window covers the
            # whole run and this very completion is measured.
            self.measure_started_at = self.started_at
        if self.done:
            return
        self.measure_count += 1
        stats = self.stats
        if txn.status is TxnStatus.COMMITTED:
            self.measure_committed += 1
            stats.commit(self.env.now - txn.submitted_at)
        else:
            stats.abort(txn.abort_reason.value if txn.abort_reason
                        else "unknown")
        for phase, duration in txn.phases.items():
            stats.record_phase(phase, duration)
        if self.measure_count >= self.cfg.measure_txns:
            self.done = True
            self.finished_at = self.env.now
            self.finished.succeed()

    def result(self) -> RunResult:
        """Assemble the :class:`RunResult` once the clock has stopped."""
        self.done = True      # clients woken by a later env.run() stand down
        extras: dict = {}
        if self.warmup_timeouts:
            extras["warmup_timeouts"] = self.warmup_timeouts
        if self.submit_errors:
            extras["submit_errors"] = self.submit_errors
        ended = self.finished_at
        if ended is None:
            # The max_sim_time wall fired before measure_txns completions:
            # the run is truncated, and an undersized point must not
            # masquerade as a full one.
            extras["wall_hit"] = True
            ended = self.env.now
        started = self.measure_started_at
        if started is None or ended <= started:
            return RunResult(tps=0.0, stats=self.stats, elapsed=0.0,
                             measured=self.measure_count,
                             timeouts=self.timeouts, extras=extras)
        elapsed = ended - started
        # Throughput is *goodput*: committed transactions per second (what
        # Caliper/YCSB report as successful-operation throughput).
        extras["completed_tps"] = self.measure_count / elapsed
        return RunResult(
            tps=self.measure_committed / elapsed,
            stats=self.stats,
            elapsed=elapsed,
            measured=self.measure_count,
            timeouts=self.timeouts,
            extras=extras,
        )


def start_watchdog(env: Environment, finished: Event, max_sim_time: float):
    """Start the process a driver hands to ``env.run(stop=...)``.

    It ends when ``finished`` fires or the ``max_sim_time`` safety wall
    does.  Every statistic is final by then, and draining the remaining
    event horizon (idle consensus timers, heartbeats, stragglers) is
    pure wall-clock waste — it used to dominate short runs.
    """
    def watchdog():
        wall = env.timeout(max_sim_time)
        yield env.any_of([finished, wall])
        wall.cancel()

    return env.process(watchdog(), name="driver-watchdog")


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
    run = _ClosedLoopRun(env, system, next_txn, config or DriverConfig())
    env.run(stop=start_watchdog(env, run.finished, run.cfg.max_sim_time))
    return run.result()


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
    after.  The clock stops at the same event as the single-heap
    lookahead run's, so the returned :class:`RunResult` is
    byte-identical to it.
    """
    run = _ClosedLoopRun(env, system, next_txn, config or DriverConfig())
    watchdog = start_watchdog(env, run.finished, run.cfg.max_sim_time)
    # The barrier period: couplers with a staggered protocol expose a
    # stride larger than the one-hop lookahead window.
    window = getattr(coupler, "stride", coupler.window)
    boundary = 0.0
    try:
        while True:
            boundary += window
            coupler.begin_window(boundary)
            env.run(until=boundary, stop=watchdog)
            if watchdog.triggered:
                break
            coupler.end_window(boundary)
    finally:
        coupler.shutdown()
    result = run.result()
    stats = getattr(coupler, "stats", None)
    if stats is not None:
        # Kernel telemetry (barrier counts, elision, byte volumes,
        # wall-clock barrier wait).  Outside the fingerprint projection:
        # some fields depend on worker-pool size, i.e. the box.
        result.extras["parallel_kernel"] = dict(stats)
    return result
