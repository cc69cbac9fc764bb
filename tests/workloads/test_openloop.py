"""Open-loop driver: arrival processes, CO-safe latency, determinism."""

import math
import random

import pytest

from repro.sim.kernel import Environment
from repro.workloads import OpenLoopConfig, YcsbConfig, YcsbWorkload, \
    run_open_loop
from repro.workloads.openloop import (DAY_TRACE, bursty_arrivals,
                                      diurnal_arrivals, make_schedule,
                                      poisson_arrivals)


class QuickSystem:
    """Commits every submission after a fixed service delay."""

    def __init__(self, env, delay=0.002):
        self.env = env
        self.delay = delay

    def submit(self, txn):
        ev = self.env.event()
        txn.submitted_at = self.env.now
        timer = self.env.timeout(self.delay)

        def done(_t, txn=txn, ev=ev):
            txn.mark_committed()
            ev.succeed(txn)

        timer.callbacks.append(done)
        return ev

    submit_query = submit


class StallSystem(QuickSystem):
    """Serves instantly except during a dead window [start, end).

    Submissions landing in the window complete only at its end — the
    classic coordinated-omission trap: a closed-loop client would simply
    not issue during the stall, and completion-relative latency stays
    tiny either way.
    """

    def __init__(self, env, delay=0.002, stall=(0.5, 1.5)):
        super().__init__(env, delay)
        self.stall = stall

    def submit(self, txn):
        ev = self.env.event()
        txn.submitted_at = self.env.now
        start, end = self.stall
        wake = self.delay if not start <= self.env.now < end \
            else (end - self.env.now) + self.delay
        timer = self.env.timeout(wake)

        def done(_t, txn=txn, ev=ev):
            txn.mark_committed()
            ev.succeed(txn)

        timer.callbacks.append(done)
        return ev

    submit_query = submit


def _cfg(**kw):
    base = dict(rate=2000.0, duration=1.0, warmup=0.25, seed=11,
                txn_timeout=2.0, max_sim_time=30.0)
    base.update(kw)
    return OpenLoopConfig(**base)


def _workload(seed=12):
    return YcsbWorkload(YcsbConfig(record_count=100, seed=seed))


def test_every_arrival_gets_a_fate(env):
    res = run_open_loop(env, QuickSystem(env), _workload().next_update,
                        _cfg())
    assert res.offered > 0
    assert res.offered == res.completed + res.timeouts + res.dropped
    assert res.unresolved == 0
    assert res.committed == res.completed    # nothing aborts here
    assert res.goodput == pytest.approx(res.committed / 1.0)
    assert res.slo_attainment == 1.0
    assert "wall_hit" not in res.extras


@pytest.mark.parametrize("arrival", ["poisson", "bursty", "diurnal"])
def test_seeded_digest_is_byte_identical_twice(arrival):
    digests = []
    for _ in range(2):
        env = Environment()
        res = run_open_loop(env, QuickSystem(env),
                            _workload().next_update,
                            _cfg(arrival=arrival))
        digests.append(res.result_digest())
    assert digests[0] == digests[1]


def test_different_seed_different_digest():
    outs = []
    for seed in (11, 23):
        env = Environment()
        res = run_open_loop(env, QuickSystem(env),
                            _workload().next_update, _cfg(seed=seed))
        outs.append(res.result_digest())
    assert outs[0] != outs[1]


def test_coordinated_omission_regression(env):
    """A 1s server stall must show up in CO-safe p99, and does not in
    the submission-relative view (the naive measurement's blind spot)."""
    system = StallSystem(env, stall=(0.5, 1.5))
    res = run_open_loop(
        env, system, _workload().next_update,
        _cfg(rate=500.0, duration=2.0, warmup=0.1, txn_timeout=5.0,
             max_in_flight=8, admit_queue=10_000))
    assert res.timeouts == 0 and res.dropped == 0
    # Arrivals during the stall waited in the admit queue; from intended
    # arrival they saw up to ~1s, from actual submission almost nothing.
    assert res.latency.pct(99) > 0.5
    assert res.service_latency.pct(99) < 0.1
    assert res.latency.pct(99) > 20 * res.service_latency.pct(99)
    assert res.late_admitted > 0
    assert res.slo_attainment < 1.0


def test_percentiles_ordered(env):
    res = run_open_loop(env, StallSystem(env, stall=(0.5, 0.9)),
                        _workload().next_update,
                        _cfg(max_in_flight=16))
    assert res.p50 <= res.p99 <= res.p999 <= res.latency.max


def test_drops_when_queue_full(env):
    system = StallSystem(env, stall=(0.3, 5.0))
    res = run_open_loop(
        env, system, _workload().next_update,
        _cfg(rate=1000.0, duration=1.0, warmup=0.1, txn_timeout=20.0,
             max_in_flight=4, admit_queue=16, max_sim_time=60.0))
    assert res.dropped > 0
    assert res.offered == res.completed + res.timeouts + res.dropped
    assert res.slo_attainment < 0.5


def test_timeouts_when_server_stalls_past_timeout(env):
    system = StallSystem(env, stall=(0.3, 10.0))
    res = run_open_loop(
        env, system, _workload().next_update,
        _cfg(rate=200.0, duration=1.0, warmup=0.1, txn_timeout=0.5,
             max_in_flight=10_000, max_sim_time=60.0))
    assert res.timeouts > 0
    assert res.offered == res.completed + res.timeouts + res.dropped


def test_wall_truncation_is_surfaced(env):
    system = StallSystem(env, stall=(0.3, 100.0))
    res = run_open_loop(
        env, system, _workload().next_update,
        _cfg(rate=200.0, duration=1.0, warmup=0.1, txn_timeout=50.0,
             max_in_flight=10_000, max_sim_time=2.0))
    assert res.extras.get("wall_hit") is True
    assert res.unresolved > 0


def test_explicit_schedule_replay(env):
    schedule = [0.1, 0.2, 0.3, 0.35, 0.35, 0.4]
    res = run_open_loop(env, QuickSystem(env), _workload().next_update,
                        _cfg(warmup=0.0, duration=1.0),
                        schedule=schedule)
    assert res.offered == len(schedule)
    assert res.committed == len(schedule)


def test_empty_schedule(env):
    res = run_open_loop(env, QuickSystem(env), _workload().next_update,
                        _cfg(), schedule=[])
    assert res.offered == 0
    assert res.goodput == 0.0
    assert "wall_hit" not in res.extras


def test_unknown_arrival_process_raises(env):
    with pytest.raises(ValueError):
        run_open_loop(env, QuickSystem(env), _workload().next_update,
                      _cfg(arrival="lognormal"))


@pytest.mark.parametrize("bad", [dict(rate=-5.0), dict(rate=0.0),
                                 dict(duration=0.0), dict(duration=-1.0),
                                 dict(warmup=-0.1),
                                 dict(rate=math.nan), dict(duration=math.nan),
                                 dict(warmup=math.nan), dict(rate=math.inf),
                                 dict(duration=math.inf),
                                 dict(warmup=math.inf)])
def test_unschedulable_config_raises(bad):
    """rate=-5 used to walk the Poisson clock backwards forever, rate=0
    was a bare ZeroDivisionError out of ``random.expovariate``, NaN in
    any of the three gave an empty schedule, and an infinite one drew
    arrivals until memory ran out."""
    with pytest.raises(ValueError, match="rate > 0, duration > 0"):
        make_schedule(OpenLoopConfig(**bad))


@pytest.mark.parametrize("txn_timeout", [0.0, -1.0])
def test_non_positive_timeout_rejected_before_the_clock_starts(
        env, txn_timeout):
    with pytest.raises(ValueError, match="txn_timeout"):
        run_open_loop(env, QuickSystem(env), _workload().next_update,
                      _cfg(txn_timeout=txn_timeout))
    assert env.now == 0.0 and env.pending == 0


# -- arrival-process statistics (no simulation) ---------------------------

def test_poisson_mean_rate():
    rng = random.Random(7)
    arr = poisson_arrivals(1000.0, 20.0, rng)
    assert len(arr) == pytest.approx(20_000, rel=0.05)
    assert arr == sorted(arr)


def test_bursty_mean_rate_and_burstiness():
    rng = random.Random(7)
    arr = bursty_arrivals(1000.0, 20.0, rng, sources=4)
    assert len(arr) == pytest.approx(20_000, rel=0.15)
    assert arr == sorted(arr)
    # Index of dispersion of counts per 100ms bin: ~1 for Poisson, well
    # above 1 for the on-off superposition.
    bins = [0] * 200
    for t in arr:
        bins[min(int(t / 0.1), 199)] += 1
    mean = sum(bins) / len(bins)
    var = sum((b - mean) ** 2 for b in bins) / len(bins)
    assert var / mean > 2.0


def test_diurnal_follows_trace():
    rng = random.Random(7)
    # Two-slice trace: second half three times the intensity of the first.
    arr = diurnal_arrivals(1000.0, 10.0, rng, trace=(1.0, 3.0))
    first = sum(1 for t in arr if t < 5.0)
    second = len(arr) - first
    assert second / max(first, 1) == pytest.approx(3.0, rel=0.15)
    assert len(arr) == pytest.approx(10_000, rel=0.1)
    assert len(DAY_TRACE) == 24


def test_make_schedule_is_seed_deterministic():
    cfg = _cfg(arrival="bursty")
    assert make_schedule(cfg) == make_schedule(cfg)
    assert make_schedule(cfg) != make_schedule(_cfg(arrival="bursty",
                                                    seed=99))
