"""The paper's taxonomy (Section 3, Tables 1 and 2) as a typed vocabulary.

Four design dimensions — replication, concurrency, storage, sharding —
each with the security-oriented (blockchain) and performance-oriented
(database) choices.  ``SystemProfile`` describes one system's position in
the design space; ``TABLE2`` reproduces the paper's Table 2 for all
twenty systems it catalogues.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ReplicationModel",
    "ReplicationApproach",
    "FailureModelChoice",
    "ConcurrencyModel",
    "LedgerAbstraction",
    "IndexKind",
    "ShardingSupport",
    "Category",
    "SystemProfile",
    "TABLE2",
    "profile",
]


class ReplicationModel(Enum):
    """What is replicated (Section 3.1.1)."""

    TRANSACTION = "txn-based"        # ordered log of whole transactions
    STORAGE = "storage-based"        # ordered log of read/write operations


class ReplicationApproach(Enum):
    """How replicas are kept consistent (Section 3.1.2)."""

    CONSENSUS = "consensus"          # Paxos/Raft/PBFT state-machine repl.
    SHARED_LOG = "shared log"        # Kafka/Corfu-style external log
    PRIMARY_BACKUP = "primary-backup"


class FailureModelChoice(Enum):
    """Tolerated failures (Section 3.1.3)."""

    CFT = "crash"
    BFT = "byzantine"
    BOTH = "cft-or-bft"              # configurable (Quorum, FISCO BCOS)


class ConcurrencyModel(Enum):
    """Transaction execution concurrency (Section 3.2)."""

    SERIAL = "serial"
    CONCURRENT = "concurrent"
    # Fabric-style: concurrent (speculative) execution, serial commit
    CONCURRENT_EXECUTION_SERIAL_COMMIT = "concurrent-exec-serial-commit"


class LedgerAbstraction(Enum):
    """Storage model (Section 3.3.1)."""

    NONE = "no ledger"
    APPEND_ONLY = "append-only ledger"


class IndexKind(Enum):
    """State organization / index (Section 3.3.2)."""

    LSM = "lsm tree"
    BTREE = "b-tree"
    SKIP_LIST = "skip list"
    LSM_MPT = "lsm + merkle patricia trie"
    LSM_MBT = "lsm + merkle bucket tree"
    BTREE_MERKLE = "b-tree + merkle tree"


class ShardingSupport(Enum):
    """Sharding & cross-shard atomicity (Section 3.4)."""

    NONE = "none"
    TWO_PC = "2pc"
    TWO_PC_BFT = "2pc-bft"


class Category(Enum):
    PERMISSIONLESS_BLOCKCHAIN = "permissionless blockchain"
    PERMISSIONED_BLOCKCHAIN = "permissioned blockchain"
    NEWSQL = "newsql database"
    NOSQL = "nosql database"
    OUT_OF_BLOCKCHAIN_DB = "out-of-the-blockchain database"
    OUT_OF_DB_BLOCKCHAIN = "out-of-the-database blockchain"


@dataclass(frozen=True)
class SystemProfile:
    """One system's design choices across the four dimensions (Table 2)."""

    name: str
    category: Category
    replication_model: ReplicationModel
    replication_approach: ReplicationApproach
    failure_model: FailureModelChoice
    consensus: str
    concurrency: ConcurrencyModel
    ledger: LedgerAbstraction
    index: IndexKind
    sharding: ShardingSupport
    benchmarked: bool = False
    notes: str = ""


def _p(name, category, rmodel, rapproach, fmodel, consensus, conc, ledger,
       index, sharding, benchmarked=False, notes="") -> SystemProfile:
    return SystemProfile(name, category, rmodel, rapproach, fmodel,
                         consensus, conc, ledger, index, sharding,
                         benchmarked, notes)


_C = Category
_RM = ReplicationModel
_RA = ReplicationApproach
_FM = FailureModelChoice
_CM = ConcurrencyModel
_LA = LedgerAbstraction
_IK = IndexKind
_SS = ShardingSupport

TABLE2: dict[str, SystemProfile] = {p.name: p for p in [
    # --- permissionless blockchains ---
    _p("ethereum", _C.PERMISSIONLESS_BLOCKCHAIN, _RM.TRANSACTION,
       _RA.CONSENSUS, _FM.BFT, "PoW", _CM.SERIAL, _LA.APPEND_ONLY,
       _IK.LSM_MPT, _SS.NONE),
    _p("eth2", _C.PERMISSIONLESS_BLOCKCHAIN, _RM.TRANSACTION,
       _RA.CONSENSUS, _FM.BFT, "PoS+Casper", _CM.SERIAL, _LA.APPEND_ONLY,
       _IK.LSM_MPT, _SS.TWO_PC_BFT, notes="serial within each shard"),
    # --- permissioned blockchains ---
    _p("quorum", _C.PERMISSIONED_BLOCKCHAIN, _RM.TRANSACTION,
       _RA.CONSENSUS, _FM.BOTH, "Raft/IBFT", _CM.SERIAL, _LA.APPEND_ONLY,
       _IK.LSM_MPT, _SS.NONE, benchmarked=True, notes="v2.2"),
    _p("fabric", _C.PERMISSIONED_BLOCKCHAIN, _RM.TRANSACTION,
       _RA.SHARED_LOG, _FM.CFT, "Raft orderers",
       _CM.CONCURRENT_EXECUTION_SERIAL_COMMIT, _LA.APPEND_ONLY, _IK.LSM,
       _SS.NONE, benchmarked=True, notes="v2.2"),
    _p("fabric-v0.6", _C.PERMISSIONED_BLOCKCHAIN, _RM.TRANSACTION,
       _RA.CONSENSUS, _FM.BFT, "PBFT", _CM.SERIAL, _LA.APPEND_ONLY,
       _IK.LSM_MBT, _SS.NONE),
    _p("eos", _C.PERMISSIONED_BLOCKCHAIN, _RM.TRANSACTION, _RA.CONSENSUS,
       _FM.BFT, "DPoS", _CM.SERIAL, _LA.APPEND_ONLY, _IK.BTREE, _SS.NONE),
    _p("fisco-bcos", _C.PERMISSIONED_BLOCKCHAIN, _RM.TRANSACTION,
       _RA.CONSENSUS, _FM.BOTH, "Raft/PBFT", _CM.SERIAL, _LA.APPEND_ONLY,
       _IK.LSM_MPT, _SS.NONE),
    # --- NewSQL databases ---
    _p("tidb", _C.NEWSQL, _RM.STORAGE, _RA.CONSENSUS, _FM.CFT, "Raft",
       _CM.CONCURRENT, _LA.NONE, _IK.LSM, _SS.TWO_PC, benchmarked=True,
       notes="v4.0"),
    _p("cockroachdb", _C.NEWSQL, _RM.STORAGE, _RA.CONSENSUS, _FM.CFT,
       "Raft", _CM.CONCURRENT, _LA.NONE, _IK.LSM, _SS.TWO_PC),
    _p("spanner", _C.NEWSQL, _RM.STORAGE, _RA.CONSENSUS, _FM.CFT, "Paxos",
       _CM.CONCURRENT, _LA.NONE, _IK.LSM, _SS.TWO_PC),
    _p("h-store", _C.NEWSQL, _RM.STORAGE, _RA.PRIMARY_BACKUP, _FM.CFT,
       "primary-backup", _CM.CONCURRENT, _LA.NONE, _IK.BTREE, _SS.TWO_PC),
    # --- NoSQL databases ---
    _p("etcd", _C.NOSQL, _RM.STORAGE, _RA.CONSENSUS, _FM.CFT, "Raft",
       _CM.SERIAL, _LA.NONE, _IK.BTREE, _SS.NONE, benchmarked=True,
       notes="v3.3"),
    _p("cassandra", _C.NOSQL, _RM.STORAGE, _RA.PRIMARY_BACKUP, _FM.CFT,
       "client-coordinated", _CM.CONCURRENT, _LA.NONE, _IK.LSM, _SS.TWO_PC),
    _p("dynamodb", _C.NOSQL, _RM.STORAGE, _RA.PRIMARY_BACKUP, _FM.CFT,
       "primary-backup", _CM.CONCURRENT, _LA.NONE, _IK.BTREE, _SS.TWO_PC),
    # --- out-of-the-blockchain databases ---
    _p("blockchaindb", _C.OUT_OF_BLOCKCHAIN_DB, _RM.STORAGE, _RA.CONSENSUS,
       _FM.BFT, "PoW", _CM.SERIAL, _LA.APPEND_ONLY, _IK.LSM_MPT,
       _SS.TWO_PC, notes="serial within each shard"),
    _p("veritas", _C.OUT_OF_BLOCKCHAIN_DB, _RM.STORAGE, _RA.SHARED_LOG,
       _FM.CFT, "Kafka", _CM.CONCURRENT_EXECUTION_SERIAL_COMMIT,
       _LA.APPEND_ONLY, _IK.SKIP_LIST, _SS.NONE),
    _p("falcondb", _C.OUT_OF_BLOCKCHAIN_DB, _RM.STORAGE, _RA.CONSENSUS,
       _FM.BFT, "Tendermint", _CM.CONCURRENT_EXECUTION_SERIAL_COMMIT,
       _LA.APPEND_ONLY, _IK.BTREE_MERKLE, _SS.NONE,
       notes="IntegriDB authentication"),
    # --- out-of-the-database blockchains ---
    _p("brd", _C.OUT_OF_DB_BLOCKCHAIN, _RM.TRANSACTION, _RA.SHARED_LOG,
       _FM.BOTH, "Kafka+BFT-SMaRt", _CM.CONCURRENT, _LA.APPEND_ONLY,
       _IK.BTREE, _SS.NONE, notes="PostgreSQL stored procedures"),
    _p("chainifydb", _C.OUT_OF_DB_BLOCKCHAIN, _RM.TRANSACTION,
       _RA.SHARED_LOG, _FM.CFT, "Kafka", _CM.CONCURRENT, _LA.APPEND_ONLY,
       _IK.BTREE, _SS.NONE, notes="heterogeneous relational backends"),
    _p("bigchaindb", _C.OUT_OF_DB_BLOCKCHAIN, _RM.TRANSACTION,
       _RA.CONSENSUS, _FM.BFT, "Tendermint", _CM.CONCURRENT,
       _LA.APPEND_ONLY, _IK.BTREE, _SS.NONE, notes="MongoDB backend"),
]}


def profile(name: str) -> SystemProfile:
    """Look up a Table 2 profile by (case-insensitive) name."""
    key = name.lower()
    if key not in TABLE2:
        raise KeyError(f"unknown system {name!r}; "
                       f"known: {sorted(TABLE2)}")
    return TABLE2[key]
