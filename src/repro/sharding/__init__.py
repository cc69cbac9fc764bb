"""Sharding: partitioning, 2PC, BFT 2PC, shard formation."""

from .formation import (FormationMethod, ReconfigurationSchedule,
                        ShardFormation)
from .partitioner import HashPartitioner, HotSplitPartitioner
from .twopc import (BftCoordinator, Decision, Participant,
                    TwoPhaseCoordinator, Vote)

__all__ = [
    "BftCoordinator",
    "Decision",
    "FormationMethod",
    "HashPartitioner",
    "HotSplitPartitioner",
    "Participant",
    "ReconfigurationSchedule",
    "ShardFormation",
    "TwoPhaseCoordinator",
    "Vote",
]
