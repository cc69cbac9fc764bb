"""Literal pins for the DB-side transaction flows and the 2PC coordinators.

Each flow has exactly one implementation (a flat callback chain); what
keeps its simulated schedule fixed across PRs is the literal below, not a
second implementation.  The values were recorded from the chains and,
independently, from the generator coroutines they replaced, at the last
commit where both existed — the two agreed on every field.

A divergence means a chain stage parks its callback, or fires its
completion, at a different position in the dispatch cascade than before:
a semantics change that needs its own justification, exactly like a
``FINGERPRINTS`` pin.  etcd and tikv have no rows here because their
default-parameter runs at seeds 11 and 23 *are* the registry pins
``etcd``/``etcd-seed23``/``tikv``/``tikv-seed23``.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import SMOKE, run_point
from repro.consensus.pbft import PbftGroup
from repro.sharding import BftCoordinator, Decision, TwoPhaseCoordinator, Vote
from repro.sim import Environment, RngRegistry

from ..conftest import make_cluster

COMMIT, ABORT = Decision.COMMIT, Decision.ABORT

#: run_point name -> overrides.  tidb runs skewed multi-op so retries,
#: latch contention and the percolator 2PC fan-out are all on the pinned
#: path; spanner and ahl run 2 ops/txn so cross-shard 2PC chains fire
#: (ahl is otherwise absent from ``FINGERPRINTS``).
CASES = {
    "tidb": dict(theta=0.9, ops_per_txn=2, measure_txns=150),
    "spanner": dict(num_nodes=6, ops_per_txn=2, measure_txns=150),
    "ahl": dict(num_nodes=6, ops_per_txn=2, measure_txns=100),
    "veritas": dict(measure_txns=150),
}

#: (system, seed) -> (tps, measured, mean latency); every case also pins
#: ``aborted == 0`` and an empty ``abort_reasons``.
PINS = {
    ("tidb", 11): ("2493.687203837692", 150, "0.010186309601969026"),
    ("tidb", 23): ("2193.2044712175257", 150, "0.01068548183233176"),
    ("spanner", 11): ("7917.606222605084", 150, "0.010322776906666668"),
    ("spanner", 23): ("8011.214846255175", 150, "0.010319626986666669"),
    ("veritas", 11): ("15390.733419062324", 150, "0.0028152484140346063"),
    ("veritas", 23): ("15487.017147885545", 150, "0.0028013074196969485"),
    ("ahl", 11): ("75.00000000000026", 100, "0.9580086289333322"),
    ("ahl", 23): ("78.79806682076095", 100, "1.010650377493332"),
}


@pytest.mark.parametrize("system,seed", sorted(PINS))
def test_flow_matches_pinned_run(system, seed):
    result = run_point(system, scale=SMOKE, seed=seed, **CASES[system])
    observed = (repr(result.tps), result.measured,
                repr(result.stats.latency.mean))
    assert observed == PINS[(system, seed)]
    assert result.stats.aborted == 0
    assert dict(result.stats.abort_reasons) == {}


# -- the 2PC coordinators ------------------------------------------------------


class _TimedParticipant:
    """Deterministic participant with seeded prepare/finalize delays."""

    def __init__(self, env, vote, prepare_delay, finalize_delay):
        self.env = env
        self.vote = vote
        self.prepare_delay = prepare_delay
        self.finalize_delay = finalize_delay
        self.decision = None

    def prepare(self, txn_id, payload):
        ev = self.env.event()

        def go():
            yield self.env.timeout(self.prepare_delay)
            ev.succeed(self.vote)
        self.env.process(go())
        return ev

    def finalize(self, txn_id, decision):
        ev = self.env.event()

        def go():
            yield self.env.timeout(self.finalize_delay)
            self.decision = decision
            ev.succeed(True)
        self.env.process(go())
        return ev


def _drive_2pc(seed: int):
    """Run a batch of seeded 2PC instances; return (results, stats)."""
    rng = random.Random(seed)
    env = Environment()
    coordinator = TwoPhaseCoordinator(env, extra_phase_delay=0.01)
    results = []
    for txn_id in range(8):
        votes = [Vote.NO if rng.random() < 0.3 else Vote.YES
                 for _ in range(3)]
        parts = [_TimedParticipant(env, v, rng.uniform(0.01, 0.2),
                                   rng.uniform(0.01, 0.1)) for v in votes]
        done = coordinator.run(txn_id, parts)
        done.callbacks.append(
            lambda ev, parts=parts: results.append(
                (env.now, ev.value, [p.decision for p in parts])))
    env.run()
    return results, (coordinator.stats.started, coordinator.stats.committed,
                     coordinator.stats.aborted)


#: seed -> ([(decision time, decision)], (started, committed, aborted));
#: every participant must have been handed the instance's decision.
TWOPC_PINS = {
    5: ([(0.13206802957683567, ABORT), (0.15330530836067655, COMMIT),
         (0.18496927016835585, ABORT), (0.2465325166422357, ABORT),
         (0.27828632966672584, COMMIT), (0.29396765844748785, COMMIT),
         (0.2940839703221502, ABORT), (0.30319302968243333, ABORT)],
        (8, 3, 5)),
    17: ([(0.16391501011549595, ABORT), (0.2097480659606171, COMMIT),
          (0.2219604548290483, ABORT), (0.2221563626383664, ABORT),
          (0.23275144410206416, COMMIT), (0.2376150061916525, ABORT),
          (0.24604060279490075, ABORT), (0.2806625141922325, ABORT)],
         (8, 2, 6)),
}


@pytest.mark.parametrize("seed", sorted(TWOPC_PINS))
def test_2pc_countdown_chain_matches_pinned_decisions(seed):
    results, stats = _drive_2pc(seed)
    decisions, pinned_stats = TWOPC_PINS[seed]
    assert [(t, d) for t, d, _parts in results] == decisions
    assert all(parts == [d] * 3 for _t, d, parts in results)
    assert stats == pinned_stats


def _drive_bft2pc(seed: int):
    env = Environment()
    network, nodes = make_cluster(env, 4, prefix="r")
    committee = PbftGroup(env, nodes, network, rng=RngRegistry(seed))
    coordinator = BftCoordinator(env, committee)
    rng = random.Random(seed)
    results = []
    for txn_id in range(4):
        votes = [Vote.NO if rng.random() < 0.25 else Vote.YES
                 for _ in range(2)]
        parts = [_TimedParticipant(env, v, rng.uniform(0.01, 0.1),
                                   rng.uniform(0.01, 0.05)) for v in votes]
        done = coordinator.run(txn_id, parts)
        done.callbacks.append(
            lambda ev: results.append((env.now, ev.value)))
    env.run(until=60)
    return results, coordinator.consensus_rounds, (
        coordinator.stats.committed, coordinator.stats.aborted)


#: seed -> ([(decision time, decision)], consensus rounds,
#: (committed, aborted)).
BFT2PC_PINS = {
    5: ([(0.10368179151712403, ABORT), (0.11719036049432152, COMMIT),
         (0.14684312612547695, ABORT), (0.148504203351082, COMMIT)],
        8, (2, 2)),
    17: ([(0.1160909881817719, ABORT), (0.13316186674418698, ABORT),
          (0.14905293867373648, COMMIT), (0.15074407220348082, COMMIT)],
         8, (2, 2)),
}


@pytest.mark.parametrize("seed", sorted(BFT2PC_PINS))
def test_bft_2pc_countdown_chain_matches_pinned_decisions(seed):
    assert _drive_bft2pc(seed) == BFT2PC_PINS[seed]
