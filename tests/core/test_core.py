"""Tests for the taxonomy, forecast framework, and system builder."""

import pytest

from repro.core import (Category, ConcurrencyModel, FailureModelChoice,
                        IndexKind, LedgerAbstraction, REPORTED_THROUGHPUT,
                        ReplicationApproach, ReplicationModel, SystemProfile,
                        TABLE2, ThroughputBand, build_system, forecast,
                        profile, rank)
from repro.core.builder import LazyMapping, _dedicated_models
from repro.core.taxonomy import ShardingSupport
from repro.sim import Environment
from repro.systems import (EtcdSystem, FabricSystem, HybridSystem,
                           QuorumSystem, SystemConfig, TiDBSystem)


# -- taxonomy ----------------------------------------------------------------

def test_table2_contains_all_twenty_systems():
    assert len(TABLE2) == 20


def test_profile_lookup_case_insensitive():
    assert profile("Fabric").name == "fabric"
    with pytest.raises(KeyError):
        profile("nonexistent-system")


def test_benchmarked_systems_flagged():
    benchmarked = {name for name, p in TABLE2.items() if p.benchmarked}
    assert benchmarked == {"quorum", "fabric", "tidb", "etcd"}


def test_blockchains_use_txn_replication_databases_storage():
    """Table 1's headline dichotomy holds across Table 2."""
    for p in TABLE2.values():
        if p.category in (Category.PERMISSIONLESS_BLOCKCHAIN,
                          Category.PERMISSIONED_BLOCKCHAIN,
                          Category.OUT_OF_DB_BLOCKCHAIN):
            assert p.replication_model is ReplicationModel.TRANSACTION, p.name
        if p.category in (Category.NEWSQL, Category.NOSQL,
                          Category.OUT_OF_BLOCKCHAIN_DB):
            assert p.replication_model is ReplicationModel.STORAGE, p.name


def test_blockchains_have_ledgers_databases_dont():
    for p in TABLE2.values():
        if p.category in (Category.NEWSQL, Category.NOSQL):
            assert p.ledger is LedgerAbstraction.NONE, p.name
        if "blockchain" in p.category.value or \
                p.category is Category.OUT_OF_BLOCKCHAIN_DB:
            assert p.ledger is LedgerAbstraction.APPEND_ONLY, p.name


def test_databases_are_cft():
    for name in ("tidb", "etcd", "spanner", "cassandra", "cockroachdb",
                 "dynamodb", "h-store"):
        assert TABLE2[name].failure_model is FailureModelChoice.CFT, name


def test_fabric_profile_matches_table2_row():
    fabric = profile("fabric")
    assert fabric.replication_approach is ReplicationApproach.SHARED_LOG
    assert fabric.concurrency is \
        ConcurrencyModel.CONCURRENT_EXECUTION_SERIAL_COMMIT
    assert fabric.index is IndexKind.LSM  # v1+ dropped the MBT
    assert profile("fabric-v0.6").index is IndexKind.LSM_MBT


def test_eth2_is_the_only_sharded_blockchain_row():
    sharded = {name for name, p in TABLE2.items()
               if p.sharding is ShardingSupport.TWO_PC_BFT}
    assert "eth2" in sharded


# -- forecast -------------------------------------------------------------------

def test_forecast_bands_for_known_hybrids():
    assert forecast(profile("veritas")).band is ThroughputBand.HIGH
    assert forecast(profile("chainifydb")).band is ThroughputBand.MEDIUM
    assert forecast(profile("bigchaindb")).band is ThroughputBand.LOW
    assert forecast(profile("blockchaindb")).band is ThroughputBand.LOW


def test_forecast_ordering_matches_reported():
    """Section 5.6's validation: a system the forecast scores higher
    reports at least the throughput of one it scores lower (equal scores
    make no ordering claim)."""
    reported = REPORTED_THROUGHPUT
    ranked = rank([TABLE2[n] for n in reported])
    for i, hi in enumerate(ranked):
        for lo in ranked[i + 1:]:
            if hi.score > lo.score:
                assert reported[hi.system] >= reported[lo.system], \
                    (hi.system, lo.system)


def test_rank_highest_first():
    names = list(REPORTED_THROUGHPUT)
    ranked = rank([TABLE2[n] for n in names])
    assert ranked[0].system == "veritas"
    scores = [f.score for f in ranked]
    assert scores == sorted(scores, reverse=True)


def test_forecast_explains_factors():
    text = forecast(profile("veritas")).explain()
    assert "storage-based replication" in text
    assert "HIGH" in text


def test_pow_penalty_puts_blockchaindb_low():
    f = forecast(profile("blockchaindb"))
    assert f.score <= 0
    assert any("PoW" in factor for factor in f.factors)


def test_in_band_check():
    lo, hi = forecast(TABLE2["veritas"]).tps_range
    assert lo <= 25_000 <= hi
    assert not lo <= 100 <= hi


def test_forecast_of_benchmarked_systems_matches_fig4_order():
    """etcd (HIGH) > tidb (MEDIUM+) > quorum (LOW-ish band)."""
    etcd_f = forecast(profile("etcd"))
    quorum_f = forecast(profile("quorum"))
    assert etcd_f.score > quorum_f.score


# -- builder ---------------------------------------------------------------------

def test_builder_dedicated_models():
    env = Environment()
    assert isinstance(build_system(env, "etcd"), EtcdSystem)
    env = Environment()
    assert isinstance(build_system(env, "fabric"), FabricSystem)
    env = Environment()
    assert isinstance(build_system(env, "quorum"), QuorumSystem)
    env = Environment()
    assert isinstance(build_system(env, "tidb"), TiDBSystem)


def test_lazy_mapping_loads_on_every_read():
    """A fresh lazy mapping answers ``len``, ``items`` and ``values``
    with the loaded items, whichever is read first, and loads once."""
    loads = []

    def load():
        loads.append(1)
        return {"a": 1, "b": 2}

    counted, listed, valued = (LazyMapping(load) for _ in range(3))
    assert len(counted) == 2
    assert dict(listed.items()) == {"a": 1, "b": 2}
    assert list(valued.values()) == [1, 2]
    assert counted["b"] == 2 and list(counted) == ["a", "b"]
    assert len(loads) == 3
    models = LazyMapping(_dedicated_models)
    assert len(models) == len(list(models.values())) == 7
    assert models["etcd"] is EtcdSystem and "tikv" in models


def test_builder_hybrids_from_table2():
    env = Environment()
    system = build_system(env, "veritas", SystemConfig(num_nodes=4))
    assert isinstance(system, HybridSystem)
    assert system.profile.name == "veritas"


def test_builder_kwargs_forwarded():
    env = Environment()
    system = build_system(env, "quorum", SystemConfig(num_nodes=4),
                          consensus="ibft")
    assert system.consensus == "ibft"


def test_builder_custom_profile():
    custom = SystemProfile(
        name="my-hybrid",
        category=Category.OUT_OF_BLOCKCHAIN_DB,
        replication_model=ReplicationModel.STORAGE,
        replication_approach=ReplicationApproach.CONSENSUS,
        failure_model=FailureModelChoice.CFT,
        consensus="Raft",
        concurrency=ConcurrencyModel.CONCURRENT,
        ledger=LedgerAbstraction.APPEND_ONLY,
        index=IndexKind.LSM_MBT,
        sharding=ShardingSupport.NONE,
    )
    env = Environment()
    system = build_system(env, custom, SystemConfig(num_nodes=3))
    assert isinstance(system, HybridSystem)
    assert system.name == "my-hybrid"
    # and the forecast framework accepts it too
    assert forecast(custom).band in ThroughputBand
