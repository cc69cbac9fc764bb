"""The hybrid-system performance forecast framework (Section 5.6, Fig. 15).

The paper's back-of-the-envelope model predicts a hybrid's *throughput
band* from two design factors:

1. the **replication model** — transaction-based replication exposes less
   concurrency than storage-based (Section 5.2.1), and
2. the **failure model / replication approach** — CFT beats BFT
   (O(N) vs O(N^2) messages), a shared log beats consensus, and PoW is in
   a class of its own.

Systems score points for performance-oriented choices; the score maps to
a band (LOW / MEDIUM / HIGH) whose absolute ranges are anchored to the
paper's own measurements (Quorum ~245 tps, Fabric ~1.3k, TiDB ~5.2k,
etcd ~17k under the default YCSB update workload).

``REPORTED_THROUGHPUT`` records the numbers the source papers report
(approximate; see notes) — the validation in Section 5.6 is that the
forecast ordering matches the reported ordering, e.g. Veritas (29k) over
ChainifyDB (6.1k).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .taxonomy import (FailureModelChoice, ReplicationApproach,
                       ReplicationModel, SystemProfile)

__all__ = ["ThroughputBand", "Forecast", "forecast", "rank",
           "REPORTED_THROUGHPUT"]


class ThroughputBand(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


#: Throughput ranges (tps) anchoring each band, from our Fig. 4 world.
BAND_RANGES: dict[ThroughputBand, tuple[float, float]] = {
    ThroughputBand.LOW: (10.0, 1_200.0),
    ThroughputBand.MEDIUM: (1_200.0, 10_000.0),
    ThroughputBand.HIGH: (10_000.0, 300_000.0),
}

#: Throughputs reported by the respective papers (tps, approximate).
#: Veritas and ChainifyDB figures are quoted in Section 5.6 of the paper;
#: the others come from the cited systems' own evaluations and are
#: order-of-magnitude placements, which is all Fig. 15 encodes.
REPORTED_THROUGHPUT: dict[str, float] = {
    "veritas": 29_000.0,      # Section 5.6 (vs Chainify)
    "chainifydb": 6_100.0,    # Section 5.6
    "brd": 2_700.0,           # Nathan et al., PVLDB'19 (~2.7k, 3 nodes)
    "falcondb": 1_900.0,      # Peng et al., SIGMOD'20 (small cluster)
    "bigchaindb": 1_000.0,    # BigchainDB 2.0 whitepaper (Tendermint-bound)
    "blockchaindb": 150.0,    # El-Hindi et al., PVLDB'19 (PoW-bound)
}


@dataclass(frozen=True)
class Forecast:
    """A predicted placement in the Fig. 15 grid."""

    system: str
    band: ThroughputBand
    score: float
    tps_range: tuple[float, float]
    factors: tuple[str, ...]

    def explain(self) -> str:
        lo, hi = self.tps_range
        factors = ", ".join(self.factors) if self.factors else "none"
        return (f"{self.system}: {self.band.value.upper()} "
                f"(~{lo:,.0f}-{hi:,.0f} tps) — performance factors: "
                f"{factors}")


def _score(profile: SystemProfile) -> tuple[float, tuple[str, ...]]:
    score = 0.0
    factors = []
    if profile.replication_model is ReplicationModel.STORAGE:
        score += 1.0
        factors.append("storage-based replication (more concurrency)")
    if profile.failure_model is FailureModelChoice.CFT:
        score += 1.0
        factors.append("CFT consensus (O(N) network cost)")
    elif profile.failure_model is FailureModelChoice.BOTH:
        score += 0.5
        factors.append("configurable CFT/BFT (CFT deployments are faster)")
    if profile.replication_approach is ReplicationApproach.SHARED_LOG:
        score += 0.5
        factors.append("shared log (ordering decoupled from state)")
    if "pow" in profile.consensus.lower():
        score -= 1.0
        factors.append("PoW consensus (throughput ceiling)")
    return score, tuple(factors)


def forecast(profile: SystemProfile) -> Forecast:
    """Predict the Fig. 15 band for one system profile."""
    score, factors = _score(profile)
    if score >= 2.0:
        band = ThroughputBand.HIGH
    elif score >= 1.0:
        band = ThroughputBand.MEDIUM
    else:
        band = ThroughputBand.LOW
    return Forecast(system=profile.name, band=band, score=score,
                    tps_range=BAND_RANGES[band], factors=factors)


def rank(profiles: list[SystemProfile]) -> list[Forecast]:
    """Forecasts sorted from highest to lowest predicted throughput."""
    return sorted((forecast(p) for p in profiles),
                  key=lambda f: f.score, reverse=True)
