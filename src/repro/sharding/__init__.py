"""Sharding: partitioning, 2PC, BFT 2PC, shard formation."""

from .formation import (FormationMethod, ReconfigurationSchedule,
                        ShardFormation)
from .partitioner import HashPartitioner
from .twopc import (BftCoordinator, Decision, Participant,
                    TwoPhaseCoordinator, Vote)

__all__ = [
    "BftCoordinator",
    "Decision",
    "FormationMethod",
    "HashPartitioner",
    "Participant",
    "ReconfigurationSchedule",
    "ShardFormation",
    "TwoPhaseCoordinator",
    "Vote",
]
