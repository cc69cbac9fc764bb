"""Discrete-event simulation substrate (kernel, network, nodes, costs)."""

from .costs import DEFAULT_COSTS, CostModel
from .kernel import AllOf, AnyOf, Environment, Event, Process, Timeout
from .metrics import LatencyRecorder, TxnStats, percentile
from .network import Message, Network
from .node import Node
from .resources import Resource, Store
from .rng import RngRegistry
from .wheel import TimingWheel

__all__ = [
    "AllOf",
    "AnyOf",
    "CostModel",
    "DEFAULT_COSTS",
    "Environment",
    "Event",
    "LatencyRecorder",
    "Message",
    "Network",
    "Node",
    "Process",
    "Resource",
    "RngRegistry",
    "Store",
    "Timeout",
    "TimingWheel",
    "TxnStats",
    "percentile",
]
