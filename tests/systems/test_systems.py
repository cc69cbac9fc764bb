"""Functional tests for the system models at small scale.

These check *correctness* (commits land in state, aborts carry reasons,
ledgers verify) rather than calibration; the shape/calibration checks
live in the benchmark suite.
"""

import pytest

from repro.sim import Environment
from repro.systems import (AhlSystem, EtcdSystem, FabricSystem,
                           QuorumSystem, SpannerSystem, SystemConfig,
                           TiDBSystem, TikvSystem, build_hybrid)
from repro.txn import Transaction, TxnStatus
from repro.workloads import (DriverConfig, YcsbConfig, YcsbWorkload,
                             run_closed_loop)

SMALL = SystemConfig(num_nodes=3)
TINY_DRIVER = DriverConfig(clients=16, warmup_txns=10, measure_txns=120,
                           max_sim_time=90.0)


def run_small(system_cls, mode="update", config=SMALL, **kwargs):
    env = Environment()
    system = system_cls(env, config, **kwargs)
    wl = YcsbWorkload(YcsbConfig(record_count=500, record_size=128))
    system.load(wl.initial_records())
    maker = {"update": wl.next_update, "query": wl.next_query,
             "rmw": wl.next_rmw}[mode]
    cfg = DriverConfig(**{**TINY_DRIVER.__dict__,
                          "query_mode": mode == "query"})
    result = run_closed_loop(env, system, maker, cfg)
    return system, result


# -- etcd ------------------------------------------------------------------------

def test_etcd_commits_updates():
    system, result = run_small(EtcdSystem)
    assert result.measured == 120
    assert result.abort_rate == 0.0
    assert result.tps > 0


def test_etcd_state_reflects_writes():
    env = Environment()
    system = EtcdSystem(env, SMALL)
    txn = Transaction.write("user1", b"hello")
    done = system.submit(txn)
    env.run(until=5)
    assert done.triggered and txn.status is TxnStatus.COMMITTED
    value, _version = system.state.get("user1")
    assert value == b"hello"
    assert system.engine.tree.get(b"user1") == b"hello"


def test_etcd_serves_queries():
    _system, result = run_small(EtcdSystem, mode="query")
    assert result.measured == 120
    assert result.mean_latency < 0.01  # sub-10ms reads (Fig. 5b)


# -- TiKV -------------------------------------------------------------------------

def test_tikv_commits_and_replicates():
    system, result = run_small(TikvSystem)
    assert result.abort_rate == 0.0
    assert result.tps > 0
    # every group made progress proportional to its key share
    commits = sum(g.replicas[system.cluster.nodes[i].name].commit_index
                  for i, g in enumerate(system.cluster.groups))
    assert commits >= 120


def test_tikv_read_returns_latest():
    env = Environment()
    system = TikvSystem(env, SMALL)

    def scenario(env):
        yield system.cluster.kv_write("k", b"v1")
        yield system.cluster.kv_write("k", b"v2")
        value, _ver = yield system.cluster.kv_read("k")
        return value

    proc = env.process(scenario(env))
    env.run(until=5)
    assert proc.value == b"v2"


# -- TiDB --------------------------------------------------------------------------

def test_tidb_commits_rmw():
    system, result = run_small(TiDBSystem, mode="rmw")
    assert result.measured == 120
    assert result.tps > 0


def test_tidb_snapshot_isolation_aborts_on_conflict():
    env = Environment()
    system = TiDBSystem(env, SMALL, retry_limit=0)
    system.load({"hot": b"0"})
    txns = [Transaction.update("hot", f"{i}".encode()) for i in range(30)]
    events = [system.submit(t) for t in txns]
    env.run(until=30)
    statuses = {t.status for t in txns}
    assert all(ev.triggered for ev in events)
    committed = [t for t in txns if t.status is TxnStatus.COMMITTED]
    aborted = [t for t in txns if t.status is TxnStatus.ABORTED]
    assert committed, "some transactions must win"
    assert aborted, "concurrent writers to one key must conflict"
    # committed versions are strictly increasing in the store
    assert system.cluster.state.version("hot") > 0


def test_tidb_logic_abort_not_retried():
    env = Environment()
    system = TiDBSystem(env, SMALL)
    system.load({"acct": (5).to_bytes(8, "big")})

    def overdraw(reads):
        return None  # constraint violation

    txn = Transaction(ops=[Transaction.update("acct", b"").ops[0]],
                      logic=overdraw)
    system.submit(txn)
    env.run(until=10)
    assert txn.status is TxnStatus.ABORTED
    assert system.retries == 0


def test_tidb_server_and_tikv_counts_configurable():
    env = Environment()
    system = TiDBSystem(env, SystemConfig(num_nodes=3),
                        tidb_servers=2, tikv_nodes=4)
    assert len(system.servers) == 2
    assert len(system.cluster.nodes) == 4


# -- Fabric ------------------------------------------------------------------------

def test_fabric_commits_and_ledger_verifies():
    system, result = run_small(FabricSystem)
    assert result.measured == 120
    for peer in system.peers:
        assert peer.ledger.verify()
        assert peer.ledger.total_txns() >= 120
    # all peers reach the same height eventually
    heights = {p.ledger.height for p in system.peers}
    assert len(heights) == 1


def test_fabric_records_phase_latencies():
    _system, result = run_small(FabricSystem)
    phases = result.phase_means()
    assert {"execute", "order", "validate"} <= set(phases)
    assert phases["order"] > 0


def test_fabric_endorsement_policy_subset():
    env = Environment()
    system = FabricSystem(env, SMALL, endorsement_policy=2)
    wl = YcsbWorkload(YcsbConfig(record_count=200, record_size=64))
    system.load(wl.initial_records())
    result = run_closed_loop(env, system, wl.next_update, TINY_DRIVER)
    assert result.measured == 120


def test_fabric_rmw_conflicts_abort_with_reason():
    env = Environment()
    system = FabricSystem(env, SMALL)
    system.load({"hot": b"0"})
    txns = [Transaction.update("hot", f"{i}".encode()) for i in range(20)]
    for t in txns:
        system.submit(t)
    env.run(until=30)
    committed = [t for t in txns if t.status is TxnStatus.COMMITTED]
    aborted = [t for t in txns if t.status is TxnStatus.ABORTED]
    assert len(committed) >= 1
    assert len(aborted) >= 1
    assert all(t.abort_reason is not None for t in aborted)


def test_fabric_query_phases_match_fig8b():
    _system, result = run_small(FabricSystem, mode="query")
    phases = result.phase_means()
    assert phases["authentication"] == pytest.approx(4294e-6, rel=0.05)
    assert phases["simulation"] == pytest.approx(406e-6, rel=0.05)
    assert phases["endorsement"] == pytest.approx(59e-6, rel=0.1)


def test_fabric_block_bytes_accounting():
    system, _result = run_small(FabricSystem)
    per_txn = system.block_bytes_per_txn()
    assert per_txn > 2000  # envelopes dominate the 128 B records


# -- Quorum ------------------------------------------------------------------------

def test_quorum_commits_serially():
    system, result = run_small(QuorumSystem)
    assert result.measured == 120
    assert system.blocks_minted > 0
    assert system.ledger.verify()


def test_quorum_phases_recorded():
    _system, result = run_small(QuorumSystem)
    phases = result.phase_means()
    assert {"proposal", "consensus", "commit"} <= set(phases)


def test_quorum_ibft_mode():
    env = Environment()
    system = QuorumSystem(env, SystemConfig(num_nodes=4), consensus="ibft")
    wl = YcsbWorkload(YcsbConfig(record_count=200, record_size=64))
    system.load(wl.initial_records())
    result = run_closed_loop(env, system, wl.next_update, TINY_DRIVER)
    assert result.measured == 120


def test_quorum_rejects_unknown_consensus():
    env = Environment()
    with pytest.raises(ValueError):
        QuorumSystem(env, SMALL, consensus="pow")


def test_quorum_smallbank_logic_aborts_counted():
    from repro.workloads import SmallbankConfig, SmallbankWorkload
    env = Environment()
    system = QuorumSystem(env, SMALL)
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=20, theta=0.0,
                                           seed=3))
    system.load(wl.initial_records())
    result = run_closed_loop(env, system, wl.next_transaction, TINY_DRIVER)
    assert result.measured == 120
    # with only 20 accounts, some send_payments overdraw eventually
    assert result.stats.committed > 0


# -- Spanner & AHL (Fig. 14 models) ---------------------------------------------------

def test_spanner_commits_and_uses_locks():
    system, result = run_small(SpannerSystem, mode="rmw")
    assert result.measured == 120
    assert result.tps > 0


def test_spanner_requires_multiple_of_three():
    env = Environment()
    with pytest.raises(ValueError):
        SpannerSystem(env, SystemConfig(num_nodes=4))


def test_spanner_cross_shard_txn_commits():
    env = Environment()
    system = SpannerSystem(env, SystemConfig(num_nodes=6))
    system.load({f"k{i}": b"0" for i in range(50)})
    # find two keys on different shards
    keys = [f"k{i}" for i in range(50)]
    a = keys[0]
    b = next(k for k in keys if system._shard_of(k) != system._shard_of(a))
    from repro.txn import Op, OpType
    txn = Transaction(ops=[Op(OpType.UPDATE, a, b"1"),
                           Op(OpType.UPDATE, b, b"2")])
    system.submit(txn)
    env.run(until=10)
    assert txn.status is TxnStatus.COMMITTED
    assert system.state.get(a)[0] == b"1"


def test_spanner_conflicting_txns_queue_and_both_commit():
    """Two writers of one key: the second waits for the first's lock
    instead of aborting, both commit in arrival order, and no lock
    state is left."""
    env = Environment()
    system = SpannerSystem(env, SystemConfig(num_nodes=3))
    system.load({"k": b"0"})
    from repro.txn import Op, OpType
    first = Transaction(ops=[Op(OpType.UPDATE, "k", b"1")])
    second = Transaction(ops=[Op(OpType.UPDATE, "k", b"2")])
    system.submit(first)
    system.submit(second)
    env.run(until=10)
    assert first.status is TxnStatus.COMMITTED
    assert second.status is TxnStatus.COMMITTED
    assert system.state.get("k")[0] == b"2"
    assert system.locks.wait_events == 1
    assert system.locks._locks == {}


def test_ahl_reconfiguration_costs_throughput():
    # Short epochs so several reconfiguration pauses land inside the
    # measurement window.
    from repro.sim.costs import DEFAULT_COSTS
    costs = DEFAULT_COSTS.derive(ahl_reconfig_period=1.0,
                                 ahl_reconfig_pause=0.3)
    config = SystemConfig(num_nodes=6, costs=costs)
    driver = DriverConfig(clients=64, warmup_txns=20, measure_txns=600,
                          max_sim_time=120)
    env = Environment()
    fixed = AhlSystem(env, config, periodic_reconfig=False)
    wl = YcsbWorkload(YcsbConfig(record_count=300, record_size=64, seed=9))
    fixed.load(wl.initial_records())
    r_fixed = run_closed_loop(env, fixed, wl.next_update, driver)
    env2 = Environment()
    reconfig = AhlSystem(env2, config, periodic_reconfig=True)
    wl2 = YcsbWorkload(YcsbConfig(record_count=300, record_size=64, seed=9))
    reconfig.load(wl2.initial_records())
    r_reconfig = run_closed_loop(env2, reconfig, wl2.next_update, driver)
    assert r_reconfig.tps < 0.9 * r_fixed.tps  # ~30% loss in the paper
    assert r_reconfig.tps > 0.4 * r_fixed.tps


def test_ahl_routes_every_key_through_one_hash_partitioner():
    from repro.sharding import HashPartitioner
    system = AhlSystem(Environment(), SystemConfig(num_nodes=192),
                       periodic_reconfig=False)
    assert system.num_shards == 64
    assert type(system.partitioner) is HashPartitioner
    reference = HashPartitioner(64)
    keys = [f"user{i}" for i in range(1_000)]
    assert ([system.partitioner.shard_of(k) for k in keys]
            == [reference.shard_of(k) for k in keys])


def _ahl_fast_reconfig_run():
    # Reconfig every 50 ms so several epoch boundaries land inside a
    # smoke-sized measured window of a Zipf-0.99 run over 64 shards.
    from repro.bench.harness import SMOKE, run_point
    from repro.sim.costs import DEFAULT_COSTS
    costs = DEFAULT_COSTS.derive(ahl_reconfig_period=0.05,
                                 ahl_reconfig_pause=0.01)
    return run_point("ahl", scale=SMOKE, num_nodes=192, seed=11, theta=0.99,
                     mode="update", measure_txns=600, costs=costs)


def test_ahl_epochs_reform_committees_but_keep_key_routing():
    result = _ahl_fast_reconfig_run()
    system = result.extras["system"]
    assert system.formation.epoch >= 3
    assert result.tps > 0
    from repro.sharding import HashPartitioner
    reference = HashPartitioner(system.num_shards)
    keys = [f"user{i}" for i in range(500)]
    assert ([system.partitioner.shard_of(k) for k in keys]
            == [reference.shard_of(k) for k in keys])


def test_ahl_zipf_fast_reconfig_run_is_seeded():
    first = _ahl_fast_reconfig_run()
    again = _ahl_fast_reconfig_run()
    assert (first.extras["system"].formation.epoch
            == again.extras["system"].formation.epoch)
    assert repr(again.tps) == repr(first.tps)
    assert repr(again.mean_latency) == repr(first.mean_latency)


def test_ahl_cross_shard_uses_bft_2pc():
    env = Environment()
    system = AhlSystem(env, SystemConfig(num_nodes=6),
                       periodic_reconfig=False)
    system.load({f"k{i}": b"0" for i in range(50)})
    keys = [f"k{i}" for i in range(50)]
    a = keys[0]
    b = next(k for k in keys
             if system.partitioner.shard_of(k)
             != system.partitioner.shard_of(a))
    from repro.txn import Op, OpType
    txn = Transaction(ops=[Op(OpType.WRITE, a, b"1"),
                           Op(OpType.WRITE, b, b"2")])
    system.submit(txn)
    env.run(until=30)
    assert txn.status is TxnStatus.COMMITTED
    assert system.cross_shard_txns == 1
    assert system.coordinator.consensus_rounds >= 2


def test_one_chain_per_behaviour():
    """The isolation and lookahead variants are branches of the one
    pipeline, not copies of it."""
    import inspect
    from repro.systems import ahl
    assert not hasattr(QuorumSystem, "_block_producer_weak")
    assert issubclass(ahl._ShardExecLA, ahl._ShardExec)
    # ...and the storage position is SystemConfig.extras["index"], not a
    # second set of constructor flags.
    assert list(inspect.signature(QuorumSystem.__init__).parameters) == [
        "self", "env", "config", "consensus"]
    assert "real_state" not in inspect.signature(
        FabricSystem.__init__).parameters


# -- hybrids -----------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["veritas", "chainifydb", "brd",
                                  "bigchaindb", "falcondb"])
def test_hybrid_commits_updates(name):
    env = Environment()
    system = build_hybrid(env, name, SystemConfig(num_nodes=4))
    wl = YcsbWorkload(YcsbConfig(record_count=300, record_size=64))
    system.load(wl.initial_records())
    result = run_closed_loop(env, system, wl.next_update,
                             DriverConfig(clients=32, warmup_txns=10,
                                          measure_txns=100,
                                          max_sim_time=120))
    assert result.measured == 100
    assert result.tps > 0


def test_blockchaindb_pow_is_slow_but_commits():
    env = Environment()
    system = build_hybrid(env, "blockchaindb", SystemConfig(num_nodes=4),
                          spec={"block_interval": 0.5})
    system.load({"k": b"0"})
    txn = Transaction.write("k", b"1")
    system.submit(txn)
    env.run(until=60)
    assert txn.status is TxnStatus.COMMITTED


def test_hybrid_occ_mode_aborts_on_conflict():
    env = Environment()
    system = build_hybrid(env, "veritas", SystemConfig(num_nodes=4))
    system.load({"hot": b"0"})
    txns = [Transaction.update("hot", f"{i}".encode()) for i in range(20)]
    for t in txns:
        system.submit(t)
    env.run(until=30)
    aborted = [t for t in txns if t.status is TxnStatus.ABORTED]
    committed = [t for t in txns if t.status is TxnStatus.COMMITTED]
    assert committed and aborted  # OCC serial-commit kills stale reads
