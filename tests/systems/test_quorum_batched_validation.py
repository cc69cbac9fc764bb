"""Tests for quorum over a real MPT (``extras={"index": "lsm+mpt"}``):
simulated index cost driven by the trie's measured ``hashes_computed``
deltas (the Sec. 6 batched-validation ablation) instead of the
per-record Fig. 11b fit."""

from __future__ import annotations

from repro.bench.harness import SMOKE, run_point

_MPT = {"index": "lsm+mpt"}


def test_ablation_charges_measured_hashes_and_commits():
    result = run_point("quorum", scale=SMOKE, seed=3, extras=_MPT)
    system = result.extras["system"]
    assert result.measured == SMOKE.measure_txns
    assert result.stats.aborted == 0
    # the charged hash count is the real trie's delta, and it is far
    # below one full path-rebuild per write (shared prefixes hash once)
    assert system.mpt_hashes_charged > 0
    assert system.engine.tree.hashes_computed >= system.mpt_hashes_charged
    assert system.ledger.verify()
    # every sealed block carries a real state root
    assert all(b.header.state_root != b"\x00" * 32
               for b in system.ledger.blocks)
    # followers validate under the same batched crypto model: the leader
    # published one measured delta per block to every follower, and the
    # followers kept pace (no unbounded delta backlog)
    assert len(system._delta_streams) == len(system.servers) - 1
    for stream in system._delta_streams.values():
        assert len(stream) <= system.blocks_minted


def test_ablation_vs_per_record_fit_is_cheaper_per_block():
    """The measured per-block commit must charge less simulated index
    time than the per-record Fig. 11b fit for the same workload (the
    ablation's point: shared-prefix batches hash each touched node once)."""
    fitted = run_point("quorum", scale=SMOKE, seed=3)
    measured = run_point("quorum", scale=SMOKE, seed=3, extras=_MPT)
    f_sys = fitted.extras["system"]
    m_sys = measured.extras["system"]
    assert f_sys.engine is None and f_sys.mpt_hashes_charged == 0
    # identical work ordered through consensus
    assert f_sys.ledger.height > 0
    assert m_sys.ledger.height > 0
    costs = m_sys.costs
    committed = sum(len(b.txns) for b in m_sys.ledger.blocks)
    # simulated index commit actually charged per committed txn
    charged = costs.index_commit_time(m_sys.mpt_hashes_charged) / committed
    # what the per-record fit charges for the same records
    per_record = costs.mpt_update_time(1000)
    assert charged < per_record
    assert measured.tps >= fitted.tps
