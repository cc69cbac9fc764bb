"""Seeded literals for both client drivers' timeout and fate handling.

The closed-loop runs go against :class:`FateSystem`, whose submissions
commit, abort, land after ``txn_timeout``, hang, fail at once or fail
later, or come back already triggered or already processed; it also
digests the order of submissions, which the aggregate figures cannot
see when same-instant clients swap places.  The open-loop runs drive
etcd with Poisson, bursty and diurnal arrivals; across them the
timeouts cover none, some and all of the measured arrivals.  Every
value is an exact ``repr``, so a change in when a timeout fires, or in
the order a fate reaches its client, moves a literal.
"""

import hashlib
import random

import pytest

from repro.core.builder import build_system
from repro.sim.kernel import Environment
from repro.systems.base import SystemConfig
from repro.txn import AbortReason, Transaction
from repro.workloads import DriverConfig, run_closed_loop
from repro.workloads.openloop import OpenLoopConfig, run_open_loop
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


class FateSystem:
    """Gives submission ``n`` the fate ``fates(n)`` says.

    A fate is ``(kind, delay)``: ``"commit"`` and ``"abort"`` settle
    ``delay`` seconds after submission; ``"hang"`` never settles;
    ``"fail"`` fails at once (``delay`` None) or after ``delay``;
    ``"triggered"`` returns an event already succeeded but not yet
    dispatched, ``"processed"`` one already dispatched.
    """

    def __init__(self, env, fates):
        self.env = env
        self.fates = fates
        self.submissions = 0
        self.order = hashlib.sha256()

    def submit(self, txn):
        env = self.env
        self.submissions += 1
        self.order.update(f"{txn.client} {env.now!r};".encode())
        kind, delay = self.fates(self.submissions)
        txn.submitted_at = env.now
        if kind == "processed":
            txn.mark_committed()
            return env.resolved(txn)
        ev = env.event()
        if kind == "triggered":
            txn.mark_committed()
            ev.succeed(txn)
        elif kind == "fail" and delay is None:
            ev.fail(RuntimeError("leader failover"))
        elif kind == "fail":
            env.after(delay, lambda _arg: ev.fail(RuntimeError("lost")))
        elif kind != "hang":
            def settle(_arg):
                if kind == "commit":
                    txn.mark_committed()
                else:
                    txn.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
                txn.phases["service"] = delay
                ev.succeed(txn)
            env.after(delay, settle)
        return ev

    submit_query = submit


def _counter_workload():
    state = {"n": 0}

    def next_txn(client):
        state["n"] += 1
        return Transaction.write(f"key{state['n'] % 64}", b"v", client)

    return next_txn


def tie_prone_fates(n):
    """Every 5th hangs; of the rest, every 2nd lands 0.3 ms after a
    0.05 s timeout and the others take 0.3 ms -- the clients' 0.3 ms
    start stagger puts deadlines and completions on the same instants."""
    if n % 5 == 0:
        return ("hang", None)
    return ("commit", 0.0503 if n % 2 == 0 else 0.0003)


def tie_prone_settled_fates(n):
    """The tie-prone fates, with fates that settle at submission, and
    completions that land exactly at the deadline, mixed in."""
    if n % 13 == 0:
        return ("commit", 0.05)
    if n % 7 == 0:
        return ("fail", None)
    if n % 3 == 0:
        return ("processed", None)
    if n % 11 == 0:
        return ("triggered", None)
    return tie_prone_fates(n)


def mixed_fates(seed):
    rng = random.Random(seed)

    def fates(n):
        delay = rng.uniform(0.001, 0.03)
        if n % 7 == 0:
            return ("hang", None)
        if n % 11 == 0:
            return ("fail", None)
        if n % 13 == 0:
            return ("fail", delay)
        if n % 17 == 0:
            return ("processed", None)
        if n % 19 == 0:
            return ("triggered", None)
        if n % 4 == 0:
            return ("abort", delay)
        return ("commit", delay)

    return fates


#: name -> (fates, DriverConfig)
CLOSED_RUNS = {
    "tie_prone": (lambda: tie_prone_fates, DriverConfig(
        clients=32, warmup_txns=100, measure_txns=1000, txn_timeout=0.05)),
    "tie_prone_settled": (lambda: tie_prone_settled_fates, DriverConfig(
        clients=32, warmup_txns=100, measure_txns=1000, txn_timeout=0.05)),
    "mixed": (lambda: mixed_fates(5), DriverConfig(
        clients=16, warmup_txns=50, measure_txns=800, txn_timeout=0.02)),
    "think": (lambda: mixed_fates(6), DriverConfig(
        clients=8, warmup_txns=20, measure_txns=400, txn_timeout=0.015,
        think_time=0.01)),
    "wall": (lambda: mixed_fates(7), DriverConfig(
        clients=8, warmup_txns=1, measure_txns=100_000, txn_timeout=0.02,
        max_sim_time=2.0)),
}

#: (measured, timeouts, warmup_timeouts, repr(tps), repr(latency.mean),
#: repr(env.now), submission-order digest) per closed-loop run.
CLOSED_PINS = {
    "mixed": (800, 596, 38, '508.816030532518', '0.008503605391835763',
              '1.3186825353558826',
              "090e8e73fafaabae65e7035c84c14950"
              "5095b522b58979712bd9fad56a12eb03"),
    "think": (400, 479, 26, '127.60056441524429', '0.005815357095360064',
              '2.582680343357379',
              "7fbcd8095d5940789ab831f5efbf0133"
              "88549f13ef5ffa9ebad3ea504bb0eb92"),
    "tie_prone": (1000, 1499, 118, '424.0162822252376',
                  '0.00030000000000002757', '2.5652999999999992',
                  "ab23f159b7f3da5dfbfaf4821fe8162d"
                  "c3108c5d7c504e7152936ea41accd96a"),
    # Per-transaction timers gave the order 39bb118e...: at t=0.1569
    # client-21's expiry, filed at its submission, ran before client-17's
    # completion, scheduled at t=0.1566.  The deadline queue's one timer
    # for that instant is armed at t=0.15689999999999998, so it runs
    # behind the completion and the two clients' resubmissions
    # interleave the other way.  Every aggregate figure is unchanged.
    "tie_prone_settled": (1000, 497, 27, '1042.4267695194412',
                          '0.006698700000000026', '1.0599',
                          "32e08eb20550bbe91fcf3f6a1ddba801"
                          "d1356185e35be2f7de6e40bc4708d541"),
    "wall": (683, 485, 0, '266.0', '0.007901355577364624', '2.0',
             "f4e8ec9f4c7b50fa38e22eabe7264636"
             "ea05195bfd9e378874f21d6ae9726a03"),
}


def _closed_run(name):
    fates, cfg = CLOSED_RUNS[name]
    env = Environment()
    system = FateSystem(env, fates())
    result = run_closed_loop(env, system, _counter_workload(), cfg)
    return env, system, result


@pytest.mark.parametrize("name", sorted(CLOSED_RUNS))
def test_closed_loop_pinned(name):
    env, system, result = _closed_run(name)
    got = (result.measured, result.timeouts,
           result.extras.get("warmup_timeouts", 0), repr(result.tps),
           repr(result.stats.latency.mean), repr(env.now),
           system.order.hexdigest())
    assert got == CLOSED_PINS[name]


#: (seed, arrival, rate, txn_timeout) per open-loop run.
OPEN_RUNS = {
    "poisson-1-none": (1, "poisson", 3000.0, 1.0),
    "bursty-1-some": (1, "bursty", 3000.0, 0.0015),
    "diurnal-1-all": (1, "diurnal", 20_000.0, 0.001),
    "poisson-2-some": (2, "poisson", 3000.0, 0.0015),
    "bursty-2-all": (2, "bursty", 20_000.0, 0.001),
    "diurnal-2-none": (2, "diurnal", 3000.0, 1.0),
}

#: (offered, timeouts, result_digest()) per open-loop run.
OPEN_PINS = {
    "bursty-1-some": (974, 599, "e9c7d60f7f04853862ad313ebcd52e00"
                                "4e748115d8833f03694b667e6684da63"),
    "bursty-2-all": (5945, 5945, "1fce9ec938d8c8616adcb6125d70bc85"
                                 "77b6154a4c53917a113e87f1b21d95a1"),
    "diurnal-1-all": (4734, 4734, "4b36867a9e9ca3918f888e772849be51"
                                  "dd0ea4503b815bedcdd3c9fb30137cdd"),
    "diurnal-2-none": (685, 0, "883863bfbf4a7f908c6d4a1f3315c593"
                               "4d488734e1139b78f0365348270eed96"),
    "poisson-1-none": (591, 0, "fed3779dd963e7b49f6e513570b0c716"
                               "6042f88f5db15544cf2b6f4adbfc112c"),
    "poisson-2-some": (613, 316, "1c4154ef4bdfcda1104ec9cb72ef834b"
                                 "241af44fc5638ef735513eb8b6363d0f"),
}


def _open_run(name):
    seed, arrival, rate, txn_timeout = OPEN_RUNS[name]
    env = Environment()
    system = build_system(env, "etcd", SystemConfig(num_nodes=5, seed=seed))
    workload = YcsbWorkload(YcsbConfig(record_count=500, record_size=100,
                                       seed=seed + 1))
    system.load(workload.initial_records())
    cfg = OpenLoopConfig(rate=rate, duration=0.2, warmup=0.05,
                         arrival=arrival, seed=seed, txn_timeout=txn_timeout,
                         max_in_flight=64, admit_queue=4096,
                         max_sim_time=20.0)
    return run_open_loop(env, system, workload.next_update, cfg)


@pytest.mark.parametrize("name", sorted(OPEN_RUNS))
def test_open_loop_pinned(name):
    result = _open_run(name)
    assert (result.offered, result.timeouts,
            result.result_digest()) == OPEN_PINS[name]
