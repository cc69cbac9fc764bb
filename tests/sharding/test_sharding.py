"""Tests for partitioning, 2PC, BFT 2PC, and shard formation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.pbft import PbftGroup
from repro.sharding import (BftCoordinator, Decision, HashPartitioner,
                            ReconfigurationSchedule, ShardFormation,
                            TwoPhaseCoordinator, Vote)
from repro.sim import RngRegistry

from ..conftest import make_cluster


# -- partitioners --------------------------------------------------------------

def test_hash_partitioner_deterministic_and_in_range():
    hp = HashPartitioner(7)
    for i in range(200):
        shard = hp.shard_of(f"key{i}")
        assert 0 <= shard < 7
        assert shard == hp.shard_of(f"key{i}")


def test_hash_partitioner_balances_uniform_keys():
    hp = HashPartitioner(4)
    counts = [0] * 4
    for i in range(4000):
        counts[hp.shard_of(f"key{i}")] += 1
    assert min(counts) > 800  # roughly balanced


def test_hash_partitioner_rejects_zero_shards():
    with pytest.raises(ValueError):
        HashPartitioner(0)


# -- 2PC -------------------------------------------------------------------------

class FakeParticipant:
    def __init__(self, env, vote, delay=0.001):
        self.env = env
        self.vote = vote
        self.delay = delay
        self.decision = None
        self.prepared = False

    def prepare(self, txn_id, payload):
        ev = self.env.event()

        def go():
            yield self.env.timeout(self.delay)
            self.prepared = True
            ev.succeed(self.vote)
        self.env.process(go())
        return ev

    def finalize(self, txn_id, decision):
        ev = self.env.event()

        def go():
            yield self.env.timeout(self.delay)
            self.decision = decision
            ev.succeed(True)
        self.env.process(go())
        return ev


def test_2pc_all_yes_commits(env):
    coordinator = TwoPhaseCoordinator(env)
    parts = [FakeParticipant(env, Vote.YES) for _ in range(3)]
    done = coordinator.run(1, parts)
    env.run()
    assert done.value is Decision.COMMIT
    assert all(p.decision is Decision.COMMIT for p in parts)
    assert coordinator.stats.committed == 1


def test_2pc_any_no_aborts_everywhere(env):
    coordinator = TwoPhaseCoordinator(env)
    parts = [FakeParticipant(env, Vote.YES),
             FakeParticipant(env, Vote.NO),
             FakeParticipant(env, Vote.YES)]
    done = coordinator.run(1, parts)
    env.run()
    assert done.value is Decision.ABORT
    assert all(p.decision is Decision.ABORT for p in parts)


def test_2pc_atomicity_no_split_decision(env):
    """Whatever the votes, every participant gets the same decision."""
    coordinator = TwoPhaseCoordinator(env)
    import itertools
    for votes in itertools.product([Vote.YES, Vote.NO], repeat=3):
        parts = [FakeParticipant(env, v) for v in votes]
        coordinator.run(1, parts)
        env.run()
        decisions = {p.decision for p in parts}
        assert len(decisions) == 1


def test_2pc_coordinator_crash_blocks_prepared_participants(env):
    """The trusted-coordinator weakness of Section 3.4.2."""
    coordinator = TwoPhaseCoordinator(env, extra_phase_delay=0.5)
    parts = [FakeParticipant(env, Vote.YES) for _ in range(2)]
    done = coordinator.run(1, parts)

    def crash_between_phases(env):
        yield env.timeout(0.1)  # after votes, before decision
        coordinator.crash()

    env.process(crash_between_phases(env))
    env.run()
    assert done.value is Decision.BLOCKED
    assert all(p.prepared for p in parts)
    assert all(p.decision is None for p in parts)  # stuck holding locks


def test_bft_2pc_commits_through_committee(env):
    network, nodes = make_cluster(env, 4, prefix="r")
    committee = PbftGroup(env, nodes, network, rng=RngRegistry(2))
    coordinator = BftCoordinator(env, committee)
    parts = [FakeParticipant(env, Vote.YES) for _ in range(2)]
    done = coordinator.run(1, parts)
    env.run(until=20)
    assert done.value is Decision.COMMIT
    assert coordinator.consensus_rounds == 2  # begin + decide


def test_bft_2pc_single_replica_crash_does_not_block(env):
    """Consensus liveness keeps the coordinator available (paper 3.4.2)."""
    network, nodes = make_cluster(env, 4, prefix="r")
    committee = PbftGroup(env, nodes, network, rng=RngRegistry(3))
    coordinator = BftCoordinator(env, committee)
    nodes[1].crash()  # one of 3f+1=4 replicas fails (f=1 tolerated)
    parts = [FakeParticipant(env, Vote.YES) for _ in range(2)]
    done = coordinator.run(1, parts)
    env.run(until=30)
    assert done.value is Decision.COMMIT


def test_2pc_crashed_coordinator_blocks_before_prepare(env):
    """A trusted coordinator that is already down blocks the instance
    at BEGIN: no participant is asked to prepare."""
    coordinator = TwoPhaseCoordinator(env)
    coordinator.crash()
    parts = [FakeParticipant(env, Vote.YES) for _ in range(2)]
    done = coordinator.run(1, parts)
    env.run()
    assert done.value is Decision.BLOCKED
    assert (coordinator.stats.started, coordinator.stats.blocked) == (1, 1)
    assert not any(p.prepared for p in parts)
    assert coordinator.stats.prepared_blocked_participants == []


class PrimaryKillingParticipant(FakeParticipant):
    """Votes YES, but crashes the committee's primary when asked to
    prepare — that is, just after the BEGIN round committed."""

    def __init__(self, env, committee):
        super().__init__(env, Vote.YES)
        self.committee = committee

    def prepare(self, txn_id, payload):
        self.committee.primary.node.crash()
        return super().prepare(txn_id, payload)


def test_bft_2pc_blocks_when_decide_round_finds_no_primary(env):
    """The BFT coordinator's BLOCKED path: BEGIN commits, the primary
    dies, and the DECIDE round fails with no live primary."""
    network, nodes = make_cluster(env, 4, prefix="r")
    committee = PbftGroup(env, nodes, network, rng=RngRegistry(2))
    coordinator = BftCoordinator(env, committee)
    parts = [PrimaryKillingParticipant(env, committee),
             FakeParticipant(env, Vote.YES)]
    done = coordinator.run(1, parts)
    settled = []
    done.callbacks.append(lambda ev: settled.append(ev.value))
    env.run(until=20)
    assert settled == [Decision.BLOCKED]
    assert coordinator.stats.blocked == 1
    assert coordinator.consensus_rounds == 2       # begin + failed decide
    assert all(p.prepared for p in parts)
    assert all(p.decision is None for p in parts)  # nobody finalized
    assert coordinator.stats.prepared_blocked_participants == parts


# -- shard formation ----------------------------------------------------------------

def test_formation_assignment_balanced_and_deterministic():
    sf = ShardFormation(num_shards=4)
    nodes = [f"n{i}" for i in range(20)]
    a1 = sf.assign(nodes)
    a2 = sf.assign(nodes)
    assert a1 == a2
    assert all(len(v) == 5 for v in a1.values())
    assert sorted(sum(a1.values(), [])) == sorted(nodes)


def test_reconfiguration_changes_assignment():
    sf = ShardFormation(num_shards=4)
    nodes = [f"n{i}" for i in range(20)]
    before = sf.assign(nodes)
    after = sf.reconfigure(nodes)
    assert before != after
    assert sf.epoch == 1


def test_formation_attacker_cannot_choose_placement():
    """Assignment depends on the epoch seed, not on node-chosen values:
    the same node lands in different shards across epochs."""
    sf = ShardFormation(num_shards=4)
    nodes = [f"n{i}" for i in range(40)]
    placements = set()
    for _ in range(8):
        assignment = sf.reconfigure(nodes)
        for shard, members in assignment.items():
            if "n0" in members:
                placements.add(shard)
    assert len(placements) > 1


def test_reconfiguration_schedule_duty_cycle():
    rs = ReconfigurationSchedule(period=30.0, pause=9.0)
    assert rs.duty_cycle == pytest.approx(0.7)
    assert rs.effective_throughput(1000) == pytest.approx(700)
    assert not rs.is_paused(0.0)
    assert rs.is_paused(25.0)


def test_reconfiguration_schedule_validation():
    with pytest.raises(ValueError):
        ReconfigurationSchedule(period=10.0, pause=10.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.lists(st.text(min_size=1, max_size=6),
                                   min_size=2, max_size=40, unique=True))
def test_formation_partition_property(num_shards, nodes):
    """Every node is assigned to exactly one shard."""
    sf = ShardFormation(num_shards=num_shards)
    assignment = sf.assign(nodes)
    flat = sum(assignment.values(), [])
    assert sorted(flat) == sorted(nodes)
