"""Concurrency control: serial, OCC (Fabric), 2PL (Spanner), percolator
(TiDB), plus the weakened-isolation schedulers behind
``extras["isolation"]`` (snapshot isolation, read committed)."""

from .occ import OccSimulator, OccValidator, endorsements_consistent
from .percolator import PercolatorStore, PrewriteConflict, TimestampOracle
from .rc import ReadCommittedScheduler
from .serial import SerialExecutor
from .si import LEVELS, SnapshotScheduler, isolation_level
from .twopl import LockManager, LockMode

__all__ = [
    "LEVELS",
    "LockManager",
    "LockMode",
    "OccSimulator",
    "OccValidator",
    "PercolatorStore",
    "PrewriteConflict",
    "ReadCommittedScheduler",
    "SerialExecutor",
    "SnapshotScheduler",
    "TimestampOracle",
    "endorsements_consistent",
    "isolation_level",
]
