"""The paper's primary contribution: taxonomy, forecast, system builder."""

from .builder import DEDICATED_MODELS, build_system
from .forecast import (BAND_RANGES, Forecast, REPORTED_THROUGHPUT,
                       ThroughputBand, forecast, rank)
from .taxonomy import (Category, ConcurrencyModel, FailureModelChoice,
                       IndexKind, LedgerAbstraction, ReplicationApproach,
                       ReplicationModel, ShardingSupport, SystemProfile,
                       TABLE2, profile)

__all__ = [
    "BAND_RANGES",
    "Category",
    "ConcurrencyModel",
    "DEDICATED_MODELS",
    "FailureModelChoice",
    "Forecast",
    "IndexKind",
    "LedgerAbstraction",
    "REPORTED_THROUGHPUT",
    "ReplicationApproach",
    "ReplicationModel",
    "ShardingSupport",
    "SystemProfile",
    "TABLE2",
    "ThroughputBand",
    "build_system",
    "forecast",
    "profile",
    "rank",
]
