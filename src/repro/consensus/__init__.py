"""Consensus and replication protocols over the simulated network."""

from .base import LogEntry
from .ibft import IbftConfig, IbftGroup, IbftReplica
from .pbft import PbftConfig, PbftGroup, PbftReplica
from .pow import PowConfig, PowMiner, PowNetwork
from .raft import NotLeader, RaftConfig, RaftGroup, RaftReplica
from .sharedlog import OrderingService, SharedLogConfig
from .tendermint import TendermintConfig, TendermintGroup, TendermintReplica

__all__ = [
    "IbftConfig",
    "IbftGroup",
    "IbftReplica",
    "LogEntry",
    "NotLeader",
    "OrderingService",
    "PbftConfig",
    "PbftGroup",
    "PbftReplica",
    "PowConfig",
    "PowMiner",
    "PowNetwork",
    "RaftConfig",
    "RaftGroup",
    "RaftReplica",
    "SharedLogConfig",
    "TendermintConfig",
    "TendermintGroup",
    "TendermintReplica",
]
