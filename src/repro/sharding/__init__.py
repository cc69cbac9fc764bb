"""Sharding: partitioning, 2PC, BFT 2PC, shard formation."""

from .formation import (FormationMethod, ReconfigurationSchedule,
                        ShardFormation, min_shard_size,
                        shard_failure_probability)
from .partitioner import (HashPartitioner, HotSplitPartitioner,
                          RangePartitioner, WorkloadAwarePartitioner)
from .twopc import (BftCoordinator, Decision, Participant,
                    TwoPhaseCoordinator, Vote)

__all__ = [
    "BftCoordinator",
    "Decision",
    "FormationMethod",
    "HashPartitioner",
    "HotSplitPartitioner",
    "Participant",
    "RangePartitioner",
    "ReconfigurationSchedule",
    "ShardFormation",
    "TwoPhaseCoordinator",
    "Vote",
    "WorkloadAwarePartitioner",
    "min_shard_size",
    "shard_failure_probability",
]
