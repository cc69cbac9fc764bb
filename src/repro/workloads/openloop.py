"""Open-loop arrival-process driver with coordinated-omission-safe latency.

``run_closed_loop``'s clients wait for each transaction's fate before
issuing the next one, so when the system stalls the *offered load stalls
with it* — the driver politely omits exactly the requests that would
have observed the stall, and the reported tail latency is a fiction
(Tene's "coordinated omission").  Production traffic from a large user
population does not coordinate: requests arrive when users decide, not
when the system is ready.

``run_open_loop`` models that:

* an **arrival process** (Poisson, bursty via superposed on-off sources,
  or diurnal-trace replay) is materialised up front as a seeded schedule
  of intended arrival instants, and each arrival fires at its scheduled
  instant *regardless of completions*;
* in-flight requests are array-backed slots — no per-request generator
  or Process — whose timeouts share one kernel timer through the closed
  loop's :class:`~repro.workloads.driver.DeadlineQueue`, and the arrival
  chain is one ``_schedule_call_at`` at a time, at the intended instant;
* every latency sample is ``complete_at - intended_arrival`` — the time
  the *user* waited, including any admission delay — so a stalled
  server cannot hide its stall from the percentiles.  The
  submission-relative view is kept alongside (``service_latency``) to
  make the difference measurable;
* arrivals that find every slot busy wait in a bounded admit queue and
  are counted ``late_admitted`` when a slot frees (their latency still
  runs from intended arrival); arrivals that find the queue full are
  counted ``dropped``.  Both are surfaced explicitly and count against
  SLO attainment.

Statistics are windowed by *intended arrival time*: an arrival intended
during ``[warmup, warmup + duration)`` is measured no matter when (or
whether) it completes.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..sim.kernel import Environment, subscribe
from ..sim.metrics import LatencyRecorder
from ..txn.transaction import TxnStatus
from .driver import DeadlineQueue, start_watchdog

__all__ = ["OpenLoopConfig", "OpenLoopResult", "run_open_loop",
           "make_schedule", "poisson_arrivals", "bursty_arrivals",
           "diurnal_arrivals", "DAY_TRACE"]


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

def poisson_arrivals(rate: float, horizon: float,
                     rng: random.Random) -> list[float]:
    """Homogeneous Poisson process: i.i.d. exponential inter-arrivals."""
    out: list[float] = []
    t = rng.expovariate(rate)
    while t < horizon:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def bursty_arrivals(rate: float, horizon: float, rng: random.Random,
                    sources: int = 8, on_mean: float = 0.4,
                    off_mean: float = 0.6) -> list[float]:
    """Superposed on-off sources: the classic self-similar-traffic model.

    Each source alternates exponential ON/OFF periods and emits Poisson
    arrivals at its peak rate while ON; peak rates are chosen so the
    aggregate long-run mean is ``rate``.  The superposition of a few
    heavy on-off sources produces the burst trains and idle gaps that a
    plain Poisson stream smooths away (Willinger et al.'s construction,
    at the scale a simulation run can afford).
    """
    duty = on_mean / (on_mean + off_mean)
    peak = rate / (sources * duty)
    out: list[float] = []
    for _ in range(sources):
        # Randomise the initial phase so sources don't switch in sync.
        t = -rng.uniform(0.0, on_mean + off_mean)
        while t < horizon:
            on_end = t + rng.expovariate(1.0 / on_mean)
            a = t + rng.expovariate(peak)
            while a < on_end:
                if 0.0 <= a < horizon:
                    out.append(a)
                a += rng.expovariate(peak)
            t = on_end + rng.expovariate(1.0 / off_mean)
    out.sort()
    return out


#: Relative intensity over a 24-slice "day" (low 4am trough, evening
#: peak) — the default diurnal trace, replayed compressed to the run's
#: horizon.
DAY_TRACE = tuple(
    round(1.0 + 0.75 * math.sin(2.0 * math.pi * (h - 8.0) / 24.0), 4)
    for h in range(24))


def diurnal_arrivals(rate: float, horizon: float, rng: random.Random,
                     trace: tuple = ()) -> list[float]:
    """Inhomogeneous Poisson replay of an intensity trace, by thinning.

    ``trace`` gives relative intensity per equal slice of the horizon
    (default :data:`DAY_TRACE`, a compressed day); arrivals are drawn
    from a dominating Poisson process at the peak intensity and kept
    with probability ``lambda(t)/peak`` (Lewis & Shedler thinning), so
    the mean over the horizon is ``rate``.
    """
    weights = list(trace) or list(DAY_TRACE)
    mean_w = sum(weights) / len(weights)
    lam = [rate * w / mean_w for w in weights]
    peak = max(lam)
    slice_len = horizon / len(lam)
    out: list[float] = []
    t = rng.expovariate(peak)
    while t < horizon:
        idx = min(int(t / slice_len), len(lam) - 1)
        if rng.random() * peak < lam[idx]:
            out.append(t)
        t += rng.expovariate(peak)
    return out


_ARRIVALS = {
    "poisson": lambda cfg, rng, horizon: poisson_arrivals(
        cfg.rate, horizon, rng),
    "bursty": lambda cfg, rng, horizon: bursty_arrivals(
        cfg.rate, horizon, rng, sources=cfg.sources,
        on_mean=cfg.on_mean, off_mean=cfg.off_mean),
    "diurnal": lambda cfg, rng, horizon: diurnal_arrivals(
        cfg.rate, horizon, rng, trace=cfg.trace),
}


def _check_window(config: "OpenLoopConfig", generated: bool) -> None:
    """Reject a config no run can measure; the rate only matters to a
    ``generated`` schedule, a replayed one brings its own instants.

    A non-positive rate walks the Poisson clock backwards forever, an
    infinite rate or bound never reaches the end of the window, and a
    NaN fails every comparison, so the window measures nothing.
    """
    rate, duration, warmup = config.rate, config.duration, config.warmup
    if not ((not generated or math.isfinite(rate) and rate > 0)
            and math.isfinite(duration) and duration > 0
            and math.isfinite(warmup) and warmup >= 0):
        needs = "rate > 0, duration > 0" if generated else "duration > 0"
        raise ValueError(
            f"open-loop schedule needs finite {needs} and warmup >= 0; "
            f"got rate={rate}, duration={duration}, warmup={warmup}")


def make_schedule(config: "OpenLoopConfig") -> list[float]:
    """The seeded intended-arrival schedule, relative to run start."""
    _check_window(config, generated=True)
    try:
        fn = _ARRIVALS[config.arrival]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {config.arrival!r}; "
            f"choose from {sorted(_ARRIVALS)}") from None
    rng = random.Random(config.seed)
    return fn(config, rng, config.warmup + config.duration)


# ---------------------------------------------------------------------------
# Configuration and result
# ---------------------------------------------------------------------------

@dataclass
class OpenLoopConfig:
    rate: float = 1000.0          # mean offered arrivals per second
    duration: float = 10.0        # measured intended-arrival window
    warmup: float = 1.0           # intended arrivals before this: warm-up
    arrival: str = "poisson"      # "poisson" | "bursty" | "diurnal"
    num_users: int = 1_000_000    # user population (arrival i is user
    #                               i % num_users; no per-user state)
    max_in_flight: int = 4096     # slot-pool size
    admit_queue: int = 16_384     # arrivals parked when slots are busy
    txn_timeout: float = 10.0     # per-request timeout (> 0)
    slo: float = 0.100            # seconds from *intended* arrival
    seed: int = 0
    query_mode: bool = False      # route via submit_query
    max_sim_time: float = 600.0   # safety wall
    # bursty-process knobs
    sources: int = 8
    on_mean: float = 0.4
    off_mean: float = 0.6
    # diurnal trace (relative intensity per slice; () = DAY_TRACE)
    trace: tuple = ()


@dataclass
class OpenLoopResult:
    """Outcome of one open-loop run, windowed by intended arrival."""

    offered: int                  # intended arrivals in the window
    submitted: int                # of those, actually submitted
    completed: int                # fate observed before timeout
    committed: int
    aborted: int
    timeouts: int
    dropped: int                  # admit queue full at arrival
    late_admitted: int            # waited in the admit queue for a slot
    goodput: float                # committed / duration
    elapsed: float                # the measurement window (duration)
    latency: LatencyRecorder      # CO-safe: complete - intended arrival
    service_latency: LatencyRecorder  # complete - actual submission
    slo: float
    slo_attainment: float         # committed-within-SLO / offered
    abort_reasons: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def p50(self) -> float:
        return self.latency.pct(50)

    @property
    def p99(self) -> float:
        return self.latency.pct(99)

    @property
    def p999(self) -> float:
        return self.latency.pct(99.9)

    @property
    def unresolved(self) -> int:
        """Measured arrivals with no fate (wall-truncated runs only)."""
        return self.offered - self.completed - self.timeouts - self.dropped

    def result_digest(self) -> str:
        """Seeded byte-identity fingerprint over the measured outcome.

        Exact float reprs, so any drift in event ordering, admission,
        or timer semantics shows up as a digest change.
        """
        payload = repr((
            self.offered, self.submitted, self.completed, self.committed,
            self.aborted, self.timeouts, self.dropped, self.late_admitted,
            repr(self.goodput), repr(self.latency.mean), repr(self.p50),
            repr(self.p99), repr(self.p999), repr(self.slo_attainment),
            repr(self.service_latency.mean),
            tuple(sorted(self.abort_reasons.items())),
        ))
        return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class _OpenSlot:
    """One in-flight request as a reusable array slot (no coroutine).

    ``ev`` doubles as the occupancy guard: a completion callback for a
    previous occupant finds a different (or no) event object and drops
    itself.  ``gen`` guards the timeout side: resolution bumps it, which
    withdraws the occupant's deadline.
    """

    __slots__ = ("run", "idx", "gen", "ev", "txn", "intended")

    def __init__(self, run: "_OpenLoopRun", idx: int):
        self.run = run
        self.idx = idx
        self.gen = 0
        self.ev = None
        self.txn = None
        self.intended = 0.0

    def _completed(self, ev) -> None:
        if ev is self.ev:          # else a previous occupant's fate
            self.run._resolve(self, timed_out=False)


class _OpenLoopRun:
    """Run-wide state shared by every callback of one open-loop run.

    Construction files the first arrival; it does not advance the clock.
    """

    __slots__ = ("env", "cfg", "submit", "next_txn", "deadlines", "schedule",
                 "t0", "win_start", "win_end", "slots", "free", "queue",
                 "arrivals_done", "finished", "latency", "service_latency",
                 "abort_reasons", "offered", "submitted", "completed",
                 "committed", "aborted", "timeouts", "dropped",
                 "late_admitted", "slo_ok")

    def __init__(self, env: Environment, system, next_txn, cfg,
                 schedule: list[float]):
        # an expiry is _resolve(slot): timed out
        self.deadlines = DeadlineQueue(env, cfg.txn_timeout, self._resolve)
        self.env = env
        self.cfg = cfg
        self.submit = system.submit_query if cfg.query_mode \
            else system.submit
        self.next_txn = next_txn
        self.schedule = schedule
        self.t0 = env.now
        self.win_start = self.t0 + cfg.warmup
        self.win_end = self.win_start + cfg.duration
        self.slots = [_OpenSlot(self, i) for i in range(cfg.max_in_flight)]
        self.free = list(range(cfg.max_in_flight - 1, -1, -1))
        self.queue: deque = deque()
        self.arrivals_done = not schedule
        self.finished = env.event()
        self.latency = LatencyRecorder("open-loop")
        self.service_latency = LatencyRecorder("service")
        self.abort_reasons: Counter = Counter()
        self.offered = 0
        self.submitted = 0
        self.completed = 0
        self.committed = 0
        self.aborted = 0
        self.timeouts = 0
        self.dropped = 0
        self.late_admitted = 0
        self.slo_ok = 0
        if schedule:
            env._schedule_call_at(self._arrival, 0, self.t0 + schedule[0])
        else:
            self.finished.succeed()

    # -- callbacks -------------------------------------------------------

    def _arrival(self, i: int) -> None:
        """Arrival ``i`` fires at its intended instant, no matter what."""
        intended = self.t0 + self.schedule[i]
        nxt = i + 1
        if nxt < len(self.schedule):
            # The chain files one arrival at a time: the heap holds
            # O(in-flight) entries, not the whole schedule.
            self.env._schedule_call_at(self._arrival, nxt,
                                       self.t0 + self.schedule[nxt])
        else:
            self.arrivals_done = True
        if self.win_start <= intended < self.win_end:
            self.offered += 1
        if self.free:
            self._admit(intended, i, late=False)
        elif len(self.queue) < self.cfg.admit_queue:
            self.queue.append((intended, i))
        else:
            if self.win_start <= intended < self.win_end:
                self.dropped += 1
            self._maybe_finish()

    def _admit(self, intended: float, i: int, late: bool) -> None:
        slot = self.slots[self.free.pop()]
        slot.intended = intended
        if self.win_start <= intended < self.win_end:
            self.submitted += 1
            if late:
                self.late_admitted += 1
        txn = self.next_txn(f"user-{i % self.cfg.num_users}")
        slot.txn = txn
        ev = self.submit(txn)
        slot.ev = ev
        self.deadlines.push(slot)
        subscribe(ev, slot._completed)

    def _resolve(self, slot: _OpenSlot, timed_out: bool = True) -> None:
        intended = slot.intended
        txn = slot.txn
        if self.win_start <= intended < self.win_end:
            if timed_out:
                self.timeouts += 1
            else:
                self.completed += 1
                co_latency = self.env.now - intended
                if txn.status is TxnStatus.COMMITTED:
                    self.committed += 1
                    self.latency.record(co_latency)
                    self.service_latency.record(
                        self.env.now - txn.submitted_at)
                    if co_latency <= self.cfg.slo:
                        self.slo_ok += 1
                else:
                    self.aborted += 1
                    reason = txn.abort_reason.value if txn.abort_reason \
                        else "unknown"
                    self.abort_reasons[reason] += 1
        slot.gen += 1
        slot.ev = slot.txn = None
        self.free.append(slot.idx)
        if self.queue:
            intended, i = self.queue.popleft()
            self._admit(intended, i, late=True)
        else:
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (self.arrivals_done and not self.queue
                and len(self.free) == len(self.slots)
                and not self.finished.triggered):
            self.finished.succeed()

    # -- result ----------------------------------------------------------

    def result(self) -> OpenLoopResult:
        cfg = self.cfg
        extras = {
            "arrival": cfg.arrival,
            "offered_rate": cfg.rate,
            "arrivals_total": len(self.schedule),
            "num_users": cfg.num_users,
        }
        if not self.finished.triggered:
            extras["wall_hit"] = True
        return OpenLoopResult(
            offered=self.offered, submitted=self.submitted,
            completed=self.completed, committed=self.committed,
            aborted=self.aborted, timeouts=self.timeouts,
            dropped=self.dropped, late_admitted=self.late_admitted,
            goodput=self.committed / cfg.duration if cfg.duration else 0.0,
            elapsed=cfg.duration,
            latency=self.latency, service_latency=self.service_latency,
            slo=cfg.slo,
            slo_attainment=self.slo_ok / self.offered
            if self.offered else 0.0,
            abort_reasons=dict(self.abort_reasons),
            extras=extras)


def run_open_loop(
    env: Environment,
    system,
    next_txn: Callable[[str], object],
    config: Optional[OpenLoopConfig] = None,
    schedule: Optional[list[float]] = None,
) -> OpenLoopResult:
    """Drive ``system`` with an open-loop arrival process and measure it.

    ``next_txn(user_name)`` produces the next transaction, as in the
    closed-loop driver.  ``schedule`` overrides the generated arrival
    schedule with explicit instants relative to run start (trace
    replay); otherwise :func:`make_schedule` builds it from the config's
    seeded arrival process.  The run ends when every arrival has a fate
    (completion, timeout, or drop), or at the ``max_sim_time`` wall —
    a wall-truncated run carries ``extras["wall_hit"]`` and a nonzero
    ``unresolved`` count instead of masquerading as complete.  A NaN,
    infinite or out-of-range ``warmup`` or ``duration`` raises
    ``ValueError`` before the clock starts, for a replayed schedule as
    for a generated one.
    """
    cfg = config or OpenLoopConfig()
    if schedule is None:
        schedule = make_schedule(cfg)
    else:
        _check_window(cfg, generated=False)
    run = _OpenLoopRun(env, system, next_txn, cfg, schedule)
    env.run(stop=start_watchdog(env, run.finished, cfg.max_sim_time))
    return run.result()
