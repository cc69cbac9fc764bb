"""Fault-injection tests: partitions, message loss, crash-recover cycles.

The replication protocols must preserve safety (no divergent commits, no
lost committed entries) under every injected fault, and recover liveness
when quorums return.
"""

from repro.consensus.pbft import PbftGroup
from repro.consensus.raft import RaftGroup
from repro.sim import RngRegistry

from ..conftest import make_cluster


def _committed_ops(replica):
    return [e.item["op"] for e in replica.log[:replica.commit_index]]


def test_raft_survives_message_loss(env):
    network, nodes = make_cluster(env, 3, seed=21)
    group = RaftGroup(env, nodes, network, rng=RngRegistry(21))
    # 20% loss on every link out of the leader
    for node in nodes[1:]:
        network.set_drop_rate(nodes[0].name, node.name, 0.2)
        network.set_drop_rate(node.name, nodes[0].name, 0.2)
    results = []

    def client(env):
        i = 0
        while i < 30:
            leader = group.leader
            if leader is None:
                yield env.timeout(0.2)
                continue
            ev = leader.propose({"op": i})
            yield env.any_of([ev, env.timeout(5.0)])
            if ev.triggered and ev.ok:
                results.append(ev.value)
                i += 1
            else:
                yield env.timeout(0.2)

    env.process(client(env))
    env.run(until=120)
    assert len(results) == 30
    # every replica's committed prefix agrees
    commits = min(r.commit_index for r in group.replicas.values())
    assert commits > 0
    prefixes = {tuple(_committed_ops(r)[:commits])
                for r in group.replicas.values()}
    assert len(prefixes) == 1


def test_raft_crash_recover_cycle(env):
    """A follower that crashes and recovers catches up on the log."""
    network, nodes = make_cluster(env, 3, seed=22)
    group = RaftGroup(env, nodes, network, rng=RngRegistry(22))
    straggler = nodes[1]
    results = []

    def client(env):
        i = 0
        while i < 40:
            leader = group.leader
            if leader is None or leader.node is straggler:
                yield env.timeout(0.2)
                continue
            ev = leader.propose({"op": i})
            yield env.any_of([ev, env.timeout(3.0)])
            if ev.triggered and ev.ok:
                results.append(ev.value)
                i += 1
                if i == 10:
                    straggler.crash()
                if i == 30:
                    straggler.recover()
            else:
                yield env.timeout(0.2)

    env.process(client(env))
    env.run(until=90)
    assert len(results) == 40
    env.run(until=env.now + 10)  # let catch-up finish
    recovered = group.replicas[straggler.name]
    assert recovered.commit_index >= 30  # caught up after recovery


def test_raft_partition_heals_without_divergence(env):
    network, nodes = make_cluster(env, 5, seed=23)
    group = RaftGroup(env, nodes, network, rng=RngRegistry(23))
    results = []

    def client(env):
        i = 0
        while i < 50:
            leader = group.leader
            if leader is None:
                yield env.timeout(0.2)
                continue
            ev = leader.propose({"op": i})
            yield env.any_of([ev, env.timeout(2.0)])
            if ev.triggered and ev.ok:
                results.append(ev.value)
                i += 1
            else:
                yield env.timeout(0.2)

    env.process(client(env))

    def chaos(env):
        yield env.timeout(2.0)
        names = [n.name for n in nodes]
        network.partition(set(names[:2]), set(names[2:]))
        yield env.timeout(8.0)
        network.heal()

    env.process(chaos(env))
    env.run(until=120)
    assert len(results) == 50
    env.run(until=env.now + 15)
    commits = min(r.commit_index for r in group.replicas.values()
                  if not r.node.crashed)
    prefixes = {tuple(_committed_ops(r)[:commits])
                for r in group.replicas.values() if not r.node.crashed}
    assert len(prefixes) == 1
    # committed client results must all be present in the agreed prefix
    agreed = _committed_ops(max(group.replicas.values(),
                                key=lambda r: r.commit_index))
    committed_ops = [item["op"] for _idx, item in results]
    assert set(committed_ops) <= set(agreed)


def test_pbft_message_loss_does_not_break_agreement(env):
    network, nodes = make_cluster(env, 4, seed=24, prefix="p")
    group = PbftGroup(env, nodes, network, rng=RngRegistry(24))
    for a in nodes:
        for b in nodes:
            if a is not b:
                network.set_drop_rate(a.name, b.name, 0.05)
    results = []

    def client(env):
        i = 0
        while i < 20:
            primary = group.primary
            if primary is None:
                yield env.timeout(0.3)
                continue
            ev = primary.propose({"op": i})
            yield env.any_of([ev, env.timeout(5.0)])
            if ev.triggered and ev.ok:
                results.append(ev.value)
                i += 1
            else:
                yield env.timeout(0.3)

    env.process(client(env))
    env.run(until=180)
    assert len(results) == 20
    # executed sequences never diverge between replicas
    seqs = [r.executed_seq for r in group.replicas.values()]
    assert max(seqs) - min(seqs) <= 2  # transient lag only
