"""Tests for IBFT, PoW, Tendermint, shared log."""

import pytest

from repro.consensus import (IbftConfig, IbftGroup, OrderingService,
                             PowConfig, PowNetwork, SharedLogConfig,
                             TendermintConfig, TendermintGroup)
from repro.sim import Node, RngRegistry

from ..conftest import make_cluster


# -- IBFT -----------------------------------------------------------------------

def test_ibft_commits_blocks(env):
    network, nodes = make_cluster(env, 4, prefix="i")
    group = IbftGroup(env, nodes, network, rng=RngRegistry(2))
    events = [group.propose({"op": i}) for i in range(20)]
    env.run(until=10)
    assert all(ev.triggered and ev.ok for ev in events)


def test_ibft_block_interval_paces_batches(env):
    network, nodes = make_cluster(env, 4, prefix="i")
    config = IbftConfig(block_interval=0.2)
    group = IbftGroup(env, nodes, network, config=config,
                      rng=RngRegistry(2))
    done_times = []

    def client(env):
        for i in range(3):
            ev = group.propose({"op": i})
            yield ev
            done_times.append(env.now)

    env.process(client(env))
    env.run(until=10)
    assert len(done_times) == 3
    # consecutive single proposals land in different block rounds
    assert done_times[1] - done_times[0] >= 0.15


def test_ibft_tolerates_f_crashes(env):
    network, nodes = make_cluster(env, 7, prefix="i")  # f = 2
    group = IbftGroup(env, nodes, network, rng=RngRegistry(3))
    nodes[5].crash()
    nodes[6].crash()
    events = [group.propose({"op": i}) for i in range(10)]
    env.run(until=20)
    assert all(ev.triggered and ev.ok for ev in events)


# -- PoW ---------------------------------------------------------------------------

def test_pow_confirms_transactions(env):
    network, nodes = make_cluster(env, 4, prefix="w")
    pow_net = PowNetwork(env, nodes, network,
                         PowConfig(block_interval=1.0),
                         rng=RngRegistry(4))
    events = [pow_net.propose({"op": i}) for i in range(20)]
    env.run(until=120)
    confirmed = sum(1 for ev in events if ev.triggered)
    assert confirmed == 20


def test_pow_chains_converge_longest_wins(env):
    network, nodes = make_cluster(env, 5, prefix="w")
    pow_net = PowNetwork(env, nodes, network,
                         PowConfig(block_interval=0.5),
                         rng=RngRegistry(5))
    env.run(until=60)
    heights = [m.main_chain_length() for m in pow_net.miners.values()]
    assert max(heights) - min(heights) <= 1  # all miners near the tip
    assert max(heights) > 50  # steady block production


def test_pow_forks_appear_with_high_latency(env):
    """Propagation delay comparable to block interval causes forks."""
    network, nodes = make_cluster(env, 5, prefix="w")
    network.costs = network.costs.derive(net_latency=0.2)
    pow_net = PowNetwork(env, nodes, network,
                         PowConfig(block_interval=0.4),
                         rng=RngRegistry(6))
    env.run(until=120)
    assert pow_net.total_forks() > 0


def test_pow_hash_share_validation(env):
    network, nodes = make_cluster(env, 2, prefix="w")
    with pytest.raises(ValueError):
        PowNetwork(env, nodes, network, shares=[0.9, 0.3])


def test_pow_majority_miner_wins_most_blocks(env):
    network, nodes = make_cluster(env, 2, prefix="w")
    pow_net = PowNetwork(env, nodes, network,
                         PowConfig(block_interval=0.2),
                         rng=RngRegistry(7), shares=[0.9, 0.1])
    env.run(until=100)
    big = pow_net.miners[nodes[0].name].blocks_mined
    small = pow_net.miners[nodes[1].name].blocks_mined
    assert big > 3 * small


# -- Tendermint -----------------------------------------------------------------------

def test_tendermint_commits_and_rotates_proposer(env):
    network, nodes = make_cluster(env, 4, prefix="t")
    group = TendermintGroup(env, nodes, network,
                            config=TendermintConfig(block_interval=0.05),
                            rng=RngRegistry(8))
    events = [group.propose({"op": i}) for i in range(10)]
    env.run(until=30)
    assert all(ev.triggered for ev in events)
    heights = {r.height for r in group.replicas.values()}
    assert max(heights) >= 2  # several heights, hence several proposers


def test_tendermint_one_height_at_a_time(env):
    network, nodes = make_cluster(env, 4, prefix="t")
    group = TendermintGroup(env, nodes, network, rng=RngRegistry(9))
    results = []

    def client(env):
        for i in range(12):
            ev = group.propose({"op": i})
            yield ev
            results.append(ev.value)

    env.process(client(env))
    env.run(until=60)
    heights = [h for h, _item in results]
    assert heights == sorted(heights)


def test_tendermint_idle_skip_suppresses_empty_blocks(env):
    network, nodes = make_cluster(env, 4, prefix="t")
    group = TendermintGroup(
        env, nodes, network,
        config=TendermintConfig(block_interval=0.05,
                                skip_empty_blocks=True),
        rng=RngRegistry(8))
    env.run(until=30)
    # 30 idle seconds: the default mode would commit ~600 empty blocks;
    # idle-skip commits none and schedules nothing while parked.
    assert all(r.commits == 0 for r in group.replicas.values())
    assert all(r.height == 1 for r in group.replicas.values())


def test_tendermint_idle_skip_still_commits_proposals(env):
    network, nodes = make_cluster(env, 4, prefix="t")
    group = TendermintGroup(
        env, nodes, network,
        config=TendermintConfig(block_interval=0.05,
                                skip_empty_blocks=True),
        rng=RngRegistry(8))
    results = []

    def client(env):
        yield env.timeout(5.0)             # a long idle stretch first
        for i in range(6):
            ev = group.propose({"op": i})
            yield ev
            results.append((env.now, ev.value))

    env.process(client(env))
    env.run(until=60)
    assert len(results) == 6
    heights = [h for _t, (h, _item) in results]
    assert heights == sorted(heights)
    # Idle again after the last commit: no further heights were produced.
    assert max(r.height for r in group.replicas.values()) == max(heights) + 1


def test_tendermint_idle_skip_empty_blocks_default_off(env):
    network, nodes = make_cluster(env, 4, prefix="t")
    group = TendermintGroup(env, nodes, network,
                            config=TendermintConfig(block_interval=0.05),
                            rng=RngRegistry(8))
    env.run(until=10)
    # Protocol-faithful default: empty blocks commit on the interval.
    assert max(r.height for r in group.replicas.values()) > 10


# -- shared log / ordering service -------------------------------------------------------

def test_ordering_service_cuts_by_count(env):
    network, nodes = make_cluster(env, 3, prefix="o")
    svc = OrderingService(env, nodes, network,
                          config=SharedLogConfig(block_max_items=5,
                                                 block_timeout=10.0),
                          rng=RngRegistry(11))
    stream = svc.subscribe_local()
    for i in range(15):
        svc.append({"op": i})
    env.run(until=5)
    blocks = stream.get_all()
    assert [len(b["items"]) for b in blocks] == [5, 5, 5]
    assert [b["number"] for b in blocks] == [0, 1, 2]


def test_ordering_service_cuts_by_timeout(env):
    network, nodes = make_cluster(env, 3, prefix="o")
    svc = OrderingService(env, nodes, network,
                          config=SharedLogConfig(block_max_items=100,
                                                 block_timeout=0.3),
                          rng=RngRegistry(12))
    stream = svc.subscribe_local()
    svc.append({"op": 0})
    svc.append({"op": 1})
    env.run(until=2)
    blocks = stream.get_all()
    assert len(blocks) == 1
    assert len(blocks[0]["items"]) == 2


def test_ordering_service_network_delivery(env):
    network, nodes = make_cluster(env, 3, prefix="o")
    peer = Node(env, "peer0")
    network.attach(peer)
    svc = OrderingService(env, nodes, network,
                          config=SharedLogConfig(block_max_items=4,
                                                 block_timeout=0.5),
                          rng=RngRegistry(13))
    svc.subscribe_node("peer0")
    received = []

    def consumer(env):
        inbox = peer.subscribe("deliver")
        while True:
            msg = yield inbox.get()
            received.append(msg.payload)

    env.process(consumer(env))
    for i in range(8):
        svc.append({"op": i})
    env.run(until=5)
    assert sum(len(b["items"]) for b in received) == 8


def test_ordering_preserves_append_order(env):
    network, nodes = make_cluster(env, 3, prefix="o")
    svc = OrderingService(env, nodes, network,
                          config=SharedLogConfig(block_max_items=7,
                                                 block_timeout=0.2),
                          rng=RngRegistry(14))
    stream = svc.subscribe_local()

    def producer(env):
        for i in range(40):
            svc.append(i)
            yield env.timeout(0.001)

    env.process(producer(env))
    env.run(until=5)
    items = [i for b in stream.get_all() for i in b["items"]]
    assert items == list(range(40))
