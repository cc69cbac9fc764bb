"""Post-run analysis: bottleneck reports, serializability/anomaly
checking, and template robustness certification."""

from .bottlenecks import BottleneckReport, ResourceUsage, analyze_system
from .robustness import RobustnessReport, TxnTemplate, certify
from .serializability import ANOMALY_KINDS, HistoryChecker, \
    SerializabilityReport

__all__ = [
    "ANOMALY_KINDS",
    "BottleneckReport",
    "HistoryChecker",
    "ResourceUsage",
    "RobustnessReport",
    "SerializabilityReport",
    "TxnTemplate",
    "analyze_system",
    "certify",
]
