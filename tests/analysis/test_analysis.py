"""Tests for bottleneck analysis and serializability checking."""

import pytest

from repro.analysis import HistoryChecker, analyze_system
from repro.sim import Environment
from repro.systems import EtcdSystem, FabricSystem, QuorumSystem, SystemConfig, TiDBSystem
from repro.txn import Op, OpType, Transaction
from repro.workloads import DriverConfig, YcsbConfig, YcsbWorkload, run_closed_loop


# -- serializability checker on synthetic histories ----------------------------

def _committed(txn_id, reads, writes, version):
    txn = Transaction(ops=[Op(OpType.UPDATE, k, b"") for k in writes])
    txn.txn_id = txn_id
    txn.read_set = dict(reads)
    txn.write_set = {k: b"v" for k in writes}
    txn.commit_version = version
    txn.mark_committed()
    return txn


def test_serial_history_is_serializable():
    checker = HistoryChecker()
    checker.observe(_committed(1, {"x": 0}, ["x"], 1))
    checker.observe(_committed(2, {"x": 1}, ["x"], 2))
    report = checker.check()
    assert report.serializable
    assert report.equivalent_order == [1, 2]


def test_write_skew_cycle_detected():
    """Classic write skew: T1 reads y writes x, T2 reads x writes y,
    both from the same snapshot — an rw/rw cycle."""
    checker = HistoryChecker()
    checker.observe(_committed(1, {"y": 0}, ["x"], 1))
    checker.observe(_committed(2, {"x": 0}, ["y"], 1))
    report = checker.check()
    assert not report.serializable
    assert set(report.cycle) == {1, 2}


def test_aborted_txns_ignored():
    checker = HistoryChecker()
    txn = _committed(1, {"x": 0}, ["x"], 1)
    aborted = Transaction(ops=[Op(OpType.UPDATE, "x", b"")])
    from repro.txn import AbortReason
    aborted.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
    checker.observe(txn)
    checker.observe(aborted)
    report = checker.check()
    assert report.txn_count == 1


def test_unstamped_writes_noted():
    checker = HistoryChecker()
    txn = _committed(1, {}, ["x"], 1)
    txn.commit_version = 0
    checker.observe(txn)
    report = checker.check()
    assert any("skipped" in note for note in report.notes)


def test_reads_from_edge_orders_transactions():
    checker = HistoryChecker()
    checker.observe(_committed(5, {}, ["a"], 3))       # writes a@3
    checker.observe(_committed(9, {"a": 3}, ["b"], 4))  # reads a@3
    report = checker.check()
    assert report.serializable
    assert report.equivalent_order.index(5) < report.equivalent_order.index(9)


# -- end-to-end: systems produce serializable histories --------------------------

def _run_and_check(system_cls, **kwargs):
    env = Environment()
    system = system_cls(env, SystemConfig(num_nodes=3), **kwargs)
    system.load({f"k{i}": b"0" for i in range(10)})  # hot: 10 keys
    wl = YcsbWorkload(YcsbConfig(record_count=10, record_size=32, seed=5))
    txns = []

    def next_txn(client):
        txn = wl.next_rmw(client)
        txns.append(txn)
        return txn

    run_closed_loop(env, system, next_txn,
                    DriverConfig(clients=16, warmup_txns=5,
                                 measure_txns=150, max_sim_time=120))
    checker = HistoryChecker()
    checker.observe_all(txns)
    return checker.check()


@pytest.mark.parametrize("system_cls", [EtcdSystem, QuorumSystem,
                                        FabricSystem, TiDBSystem])
def test_committed_histories_are_serializable(system_cls):
    """The core correctness claim for every concurrency design, verified
    against the conflict graph of a highly contended run."""
    report = _run_and_check(system_cls)
    assert report.txn_count > 50
    assert report.serializable, f"cycle: {report.cycle}"


# -- bottleneck analysis ------------------------------------------------------------

def test_analyze_identifies_quorum_evm_bottleneck():
    env = Environment()
    system = QuorumSystem(env, SystemConfig(num_nodes=3))
    wl = YcsbWorkload(YcsbConfig(record_count=1_000, record_size=1000))
    system.load(wl.initial_records())
    result = run_closed_loop(env, system, wl.next_update,
                             DriverConfig(clients=128, warmup_txns=50,
                                          measure_txns=400))
    report = analyze_system(system, elapsed=result.elapsed
                            + result.stats.latency.max)
    # the leader's single EVM thread must be the most utilized resource
    assert report.bottleneck.name.startswith("evm:")


def test_analyze_reports_quorum_query_pools():
    env = Environment()
    system = QuorumSystem(env, SystemConfig(num_nodes=3))
    wl = YcsbWorkload(YcsbConfig(record_count=500, record_size=256))
    system.load(wl.initial_records())
    run_closed_loop(env, system, wl.next_query,
                    DriverConfig(clients=32, warmup_txns=10,
                                 measure_txns=200, query_mode=True))
    usages = {u.name: u for u in analyze_system(system).usages}
    pools = [usages[f"query-pool:{node.name}"] for node in system.servers]
    # round-robin: every node's pool served queries
    assert all(u.total_requests > 0 and u.utilization > 0 for u in pools)
    assert sum(u.total_requests for u in pools) >= 210


def test_analyze_render_and_saturated():
    env = Environment()
    system = EtcdSystem(env, SystemConfig(num_nodes=3))
    wl = YcsbWorkload(YcsbConfig(record_count=500, record_size=256))
    system.load(wl.initial_records())
    run_closed_loop(env, system, wl.next_update,
                    DriverConfig(clients=32, warmup_txns=10,
                                 measure_txns=200))
    report = analyze_system(system)
    text = report.render()
    assert "bottleneck report" in text
    assert isinstance(report.saturated(threshold=0.0), list)
    assert report.usages  # resources were observed
