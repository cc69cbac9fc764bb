"""Raft protocol tests: normal case, elections, failover, safety."""

from repro.consensus.raft import NotLeader, RaftConfig, RaftGroup
from repro.sim import RngRegistry

from ..conftest import make_cluster


def make_group(env, n, seed=1, jitter=0.0, **config_kw):
    network, nodes = make_cluster(env, n, seed=seed, jitter=jitter)
    group = RaftGroup(env, nodes, network,
                      config=RaftConfig(**config_kw) if config_kw else None,
                      rng=RngRegistry(seed))
    return group, network, nodes


def drive(env, group, count, results, size=256):
    def client(env):
        i = 0
        while i < count:
            leader = group.leader
            if leader is None:
                yield env.timeout(0.1)
                continue
            ev = leader.propose({"op": i}, size=size)
            yield env.any_of([ev, env.timeout(3.0)])
            if ev.triggered and ev.ok:
                results.append(ev.value)
                i += 1
            else:
                yield env.timeout(0.1)
    env.process(client(env))


def test_normal_case_commits_in_order(env):
    group, _net, _nodes = make_group(env, 3)
    results = []
    drive(env, group, 50, results)
    env.run(until=10)
    assert len(results) == 50
    indices = [idx for idx, _item in results]
    assert indices == sorted(indices)


def test_all_replicas_converge(env):
    group, _net, _nodes = make_group(env, 5)
    results = []
    drive(env, group, 40, results)
    env.run(until=20)
    logs = {tuple((e.term, e.item["op"]) for e in r.log[:r.commit_index])
            for r in group.replicas.values()}
    assert len(logs) == 1  # identical committed prefixes
    assert all(r.commit_index == 40 for r in group.replicas.values())


def test_apply_stream_queues_from_its_first_reader(env):
    """A replica's apply stream exists once something takes it and queues
    the entries committed from then on; until then it queues nothing."""
    group, _net, _nodes = make_group(env, 3)
    first, second, third = group.replicas.values()
    stream = first.applied
    results = []
    drive(env, group, 10, results)
    env.run(until=10)
    assert [idx for idx, _item in stream.get_all()] == list(range(1, 11))
    assert second._applied is None and third._applied is None
    late = second.applied
    drive(env, group, 5, results)
    env.run(until=20)
    assert [idx for idx, _item in late.get_all()] == list(range(11, 16))


def test_etcd_followers_queue_no_apply_items():
    """etcd reads one replica's apply stream; after a SMOKE run no other
    replica holds a queued copy of the log."""
    from repro.bench.harness import SMOKE, run_point
    system = run_point("etcd", scale=SMOKE, seed=7).extras["system"]
    consumed = system.servers[0].name
    replicas = system.raft.replicas
    assert len(replicas) == 5 and replicas[consumed].commits > 0
    for name, replica in replicas.items():
        if name != consumed:
            assert replica.commits > 0
            assert len(replica.applied) == 0


def test_propose_to_follower_fails_with_hint(env):
    group, _net, _nodes = make_group(env, 3)
    env.run(until=1.0)
    followers = [r for r in group.replicas.values() if r.role != "leader"]
    ev = followers[0].propose({"op": 1})
    assert ev.triggered and not ev.ok
    assert isinstance(ev.value, NotLeader)


def test_leader_crash_triggers_failover_and_progress(env):
    group, _net, _nodes = make_group(env, 5, seed=3)
    results = []

    def client(env):
        i = 0
        while i < 60:
            leader = group.leader
            if leader is None:
                yield env.timeout(0.2)
                continue
            ev = leader.propose({"op": i})
            yield env.any_of([ev, env.timeout(2.0)])
            if ev.triggered and ev.ok:
                results.append(ev.value)
                i += 1
                if i == 30:
                    leader.node.crash()
            else:
                yield env.timeout(0.1)

    env.process(client(env))
    env.run(until=60)
    assert len(results) == 60
    # exactly one live leader at the end, with a higher term
    live_leaders = [r for r in group.replicas.values()
                    if r.role == "leader" and not r.node.crashed]
    assert len(live_leaders) == 1
    assert live_leaders[0].term >= 2


def test_committed_entries_survive_leader_crash(env):
    group, _net, _nodes = make_group(env, 5, seed=4)
    results = []
    drive(env, group, 25, results)
    env.run(until=10)
    assert len(results) == 25
    committed_ops = [item["op"] for _idx, item in results]
    old_leader = group.leader
    old_leader.node.crash()
    env.run(until=40)
    new_leader = group.leader
    assert new_leader is not None and new_leader is not old_leader
    new_ops = [e.item["op"] for e in
               new_leader.log[:new_leader.commit_index]]
    # every committed op is retained, in order
    assert new_ops[:len(committed_ops)] == committed_ops


def test_minority_partition_cannot_commit(env):
    group, network, nodes = make_group(env, 5, seed=5)
    env.run(until=1.0)
    leader = group.leader
    minority = {leader.name}
    majority = {n.name for n in nodes} - minority
    network.partition(minority, majority)
    ev = leader.propose({"op": "isolated"})
    env.run(until=8.0)
    # the isolated leader cannot gather a quorum
    assert not ev.triggered or not ev.ok
    assert leader.commit_index == 0


def test_majority_partition_elects_new_leader_and_old_steps_down(env):
    group, network, nodes = make_group(env, 5, seed=6)
    env.run(until=1.0)
    old_leader = group.leader
    minority = {old_leader.name}
    majority = {n.name for n in nodes} - minority
    network.partition(minority, majority)
    env.run(until=10.0)
    majority_leaders = [r for r in group.replicas.values()
                        if r.role == "leader" and r.name in majority]
    assert len(majority_leaders) == 1
    network.heal()
    env.run(until=20.0)
    # old leader observes the higher term and steps down
    assert group.replicas[old_leader.name].role != "leader" or \
        group.replicas[old_leader.name].term >= majority_leaders[0].term


def test_election_safety_single_leader_per_term(env):
    """Across a run with a crash, no term ever has two leaders."""
    group, _net, _nodes = make_group(env, 5, seed=7)
    leaders_by_term: dict[int, set] = {}

    def monitor(env):
        while True:
            for r in group.replicas.values():
                if r.role == "leader":
                    leaders_by_term.setdefault(r.term, set()).add(r.name)
            yield env.timeout(0.05)

    env.process(monitor(env))
    results = []
    drive(env, group, 10, results)
    env.run(until=5)
    group.leader.node.crash()
    env.run(until=30)
    for term, names in leaders_by_term.items():
        assert len(names) == 1, f"term {term} had leaders {names}"


def test_log_matching_after_heavy_load(env):
    group, _net, _nodes = make_group(env, 3, seed=8, jitter=0.0005)
    results = []
    for _ in range(4):
        drive(env, group, 50, results)
    env.run(until=30)
    assert len(results) == 200
    replicas = list(group.replicas.values())
    min_commit = min(r.commit_index for r in replicas)
    assert min_commit > 0
    reference = [(e.term, e.item["op"])
                 for e in replicas[0].log[:min_commit]]
    for replica in replicas[1:]:
        assert [(e.term, e.item["op"])
                for e in replica.log[:min_commit]] == reference


def test_batching_respects_max_batch(env):
    group, _net, _nodes = make_group(
        env, 3, batch_window=0.05, max_batch=4)
    leader = group.leader
    events = [leader.propose({"op": i}) for i in range(10)]
    env.run(until=5)
    assert all(ev.triggered and ev.ok for ev in events)


def test_single_node_cluster_commits_alone(env):
    group, _net, _nodes = make_group(env, 1)
    ev = group.propose({"op": 0})
    env.run(until=2)
    assert ev.triggered and ev.ok
