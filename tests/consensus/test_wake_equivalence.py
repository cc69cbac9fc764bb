"""Seeded fingerprint tests: wake-on-proposal must be outcome-preserving.

Each scenario drives one consensus protocol with a deterministic proposal
schedule that exercises the paths the wake-on-proposal refactor touched:
batch closes on the ``batch_window`` grid, max-batch kicks, long idle
stretches (heartbeat pacing), and bursts of same-time proposals.  The
full observable trace — every applied (time, item) pair plus message and
protocol counters — is hashed, and the digest is asserted against a
golden captured from the pre-refactor polling implementation.

A digest change here means the refactor altered *simulation semantics*,
not just wall-clock speed; investigate before updating a golden.
"""

from __future__ import annotations

import hashlib

from repro.consensus.pbft import PbftConfig, PbftGroup
from repro.consensus.ibft import IbftConfig, IbftGroup
from repro.consensus.raft import RaftConfig, RaftGroup
from repro.consensus.sharedlog import OrderingService, SharedLogConfig
from repro.consensus.tendermint import TendermintConfig, TendermintGroup
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RngRegistry


def _cluster(env, n, prefix="n"):
    network = Network(env)
    nodes = [Node(env, f"{prefix}{i}") for i in range(n)]
    for node in nodes:
        network.attach(node)
    return network, nodes


def _consume(env, store, sink, label):
    def loop():
        while True:
            item = yield store.get()
            sink.append(f"{label}@{env.now!r}:{item!r}")
    env.process(loop(), name=f"fp-consume:{label}")


def _digest(trace: list[str]) -> str:
    return hashlib.sha256("\n".join(trace).encode()).hexdigest()[:16]


def _schedule_proposals(env, propose, trace):
    """The shared proposal schedule: trickle, burst, idle gap, trickle."""

    def on_commit(tag):
        def cb(ev):
            trace.append(f"ack:{tag}@{env.now!r}:ok={ev._ok}")
        return cb

    def trickle(start, count, gap, tag):
        yield env.timeout(start)
        for i in range(count):
            ev = propose((tag, i))
            ev.callbacks is None or ev.callbacks.append(on_commit(f"{tag}{i}"))
            yield env.timeout(gap)

    def burst(start, count, tag):
        yield env.timeout(start)
        for i in range(count):
            ev = propose((tag, i))
            ev.callbacks is None or ev.callbacks.append(on_commit(f"{tag}{i}"))

    env.process(trickle(0.0021, 12, 0.0007, "a"), name="fp-trickle-a")
    env.process(burst(0.0113, 9, "b"), name="fp-burst-b")
    # long idle gap here: heartbeat / pacing behaviour must be identical
    env.process(trickle(0.31, 7, 0.0019, "c"), name="fp-trickle-c")


def raft_trace() -> str:
    env = Environment()
    network, nodes = _cluster(env, 5)
    group = RaftGroup(env, nodes, network,
                      config=RaftConfig(batch_window=0.001, max_batch=4,
                                        heartbeat_interval=0.05),
                      rng=RngRegistry(42))
    trace: list[str] = []
    leader = group.replicas[nodes[0].name]
    follower = group.replicas[nodes[2].name]
    _consume(env, leader.applied, trace, "leader")
    _consume(env, follower.applied, trace, "follower")
    _schedule_proposals(env, lambda item: group.propose(item), trace)
    env.run(until=0.6)
    trace.append(f"commits={[group.replicas[n.name].commits for n in nodes]}")
    trace.append(f"elections={[group.replicas[n.name].elections_started for n in nodes]}")
    trace.append(f"msgs={network.messages_sent} bytes={network.bytes_sent}")
    return _digest(trace)


def pbft_trace() -> str:
    env = Environment()
    network, nodes = _cluster(env, 4)
    group = PbftGroup(env, nodes, network,
                      config=PbftConfig(batch_window=0.005, max_batch=4,
                                        heartbeat_interval=0.05,
                                        view_change_timeout=5.0),
                      rng=RngRegistry(42))
    trace: list[str] = []
    primary = group.replicas[nodes[0].name]
    backup = group.replicas[nodes[1].name]
    _consume(env, primary.applied, trace, "primary")
    _consume(env, backup.applied, trace, "backup")
    _schedule_proposals(env, lambda item: group.propose(item), trace)
    env.run(until=0.6)
    trace.append(f"exec={[group.replicas[n.name].executed_seq for n in nodes]}")
    trace.append(f"views={[group.replicas[n.name].view_changes_count for n in nodes]}")
    trace.append(f"msgs={network.messages_sent} bytes={network.bytes_sent}")
    return _digest(trace)


def ibft_trace() -> str:
    env = Environment()
    network, nodes = _cluster(env, 4)
    group = IbftGroup(env, nodes, network,
                      config=IbftConfig(block_interval=0.02,
                                        view_change_timeout=5.0),
                      rng=RngRegistry(42))
    trace: list[str] = []
    primary = group.replicas[nodes[0].name]
    _consume(env, primary.applied, trace, "primary")
    _schedule_proposals(env, lambda item: group.propose(item), trace)
    env.run(until=0.6)
    trace.append(f"exec={[group.replicas[n.name].executed_seq for n in nodes]}")
    trace.append(f"msgs={network.messages_sent} bytes={network.bytes_sent}")
    return _digest(trace)


def tendermint_trace() -> str:
    env = Environment()
    network, nodes = _cluster(env, 4)
    group = TendermintGroup(env, nodes, network,
                           config=TendermintConfig(block_interval=0.01,
                                                   max_block_txns=6,
                                                   round_timeout=0.05),
                           rng=RngRegistry(42))
    trace: list[str] = []
    r0 = group.replicas[nodes[0].name]
    r2 = group.replicas[nodes[2].name]
    _consume(env, r0.applied, trace, "r0")
    _consume(env, r2.applied, trace, "r2")
    _schedule_proposals(env, lambda item: group.propose(item), trace)
    env.run(until=0.6)
    trace.append(f"heights={[group.replicas[n.name].height for n in nodes]}")
    trace.append(f"commits={[group.replicas[n.name].commits for n in nodes]}")
    trace.append(f"wasted={[group.replicas[n.name].rounds_wasted for n in nodes]}")
    trace.append(f"msgs={network.messages_sent} bytes={network.bytes_sent}")
    return _digest(trace)


def sharedlog_trace() -> str:
    env = Environment()
    network, nodes = _cluster(env, 3, prefix="ord")
    svc = OrderingService(env, nodes, network,
                          config=SharedLogConfig(block_max_items=5,
                                                 block_timeout=0.05),
                          rng=RngRegistry(42))
    trace: list[str] = []
    stream = svc.subscribe_local()
    _consume(env, stream, trace, "blocks")
    _schedule_proposals(env, lambda item: svc.append(item), trace)
    env.run(until=0.6)
    trace.append(f"cut={svc.blocks_cut} ordered={svc.items_ordered}")
    trace.append(f"msgs={network.messages_sent} bytes={network.bytes_sent}")
    return _digest(trace)


#: Golden digests captured from the pre-refactor (poll-at-batch_window)
#: implementation.  Wake-on-proposal must reproduce them byte-for-byte.
GOLDEN = {
    "raft": "5748605fedb333c8",
    "pbft": "4fd10ab17d42a01a",
    "ibft": "9d1bf11313af46c4",
    "tendermint": "a26cce4e036300e1",
    "sharedlog": "b601095dba4c964b",
}


def test_raft_fingerprint():
    assert raft_trace() == GOLDEN["raft"]


def test_pbft_fingerprint():
    assert pbft_trace() == GOLDEN["pbft"]


def test_ibft_fingerprint():
    assert ibft_trace() == GOLDEN["ibft"]


def test_tendermint_fingerprint():
    assert tendermint_trace() == GOLDEN["tendermint"]


def test_sharedlog_fingerprint():
    assert sharedlog_trace() == GOLDEN["sharedlog"]


if __name__ == "__main__":  # capture utility: print fresh digests
    for name, fn in [("raft", raft_trace), ("pbft", pbft_trace),
                     ("ibft", ibft_trace), ("tendermint", tendermint_trace),
                     ("sharedlog", sharedlog_trace)]:
        print(f'    "{name}": "{fn()}",')
