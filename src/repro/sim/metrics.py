"""Measurement utilities: latency recorders and transaction counters.

These are what the benchmark harness reads after a run; they deliberately
mirror what Caliper / YCSB / OLTPBench report (throughput in tps, average
and percentile latency, abort counts by reason).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["LatencyRecorder", "TxnStats", "percentile"]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted list (p in [0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of empty list")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


class LatencyRecorder:
    """Accumulates per-operation latencies (simulated seconds)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: list[float] = []
        self._sorted: Optional[list[float]] = None

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self.samples.append(latency)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def pct(self, p: float) -> float:
        """Nearest-rank percentile over all recorded samples.

        The sorted view is cached across calls — a p50/p99/p99.9 report
        over a million open-loop samples costs one sort, not three.  The
        length check catches samples appended behind ``record``'s back.
        """
        if not self.samples:
            return 0.0
        srt = self._sorted
        if srt is None or len(srt) != len(self.samples):
            srt = self._sorted = sorted(self.samples)
        return percentile(srt, p)

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0


@dataclass
class TxnStats:
    """Aggregate transaction outcome statistics for one run."""

    committed: int = 0
    aborted: int = 0
    abort_reasons: Counter = field(default_factory=Counter)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    phase_latency: dict[str, LatencyRecorder] = field(default_factory=dict)

    def commit(self, latency: float) -> None:
        self.committed += 1
        self.latency.record(latency)

    def abort(self, reason: str) -> None:
        self.aborted += 1
        self.abort_reasons[reason] += 1

    def record_phase(self, phase: str, latency: float) -> None:
        rec = self.phase_latency.get(phase)
        if rec is None:
            rec = LatencyRecorder(phase)
            self.phase_latency[phase] = rec
        rec.record(latency)

    @property
    def total(self) -> int:
        return self.committed + self.aborted

    @property
    def abort_rate(self) -> float:
        return self.aborted / self.total if self.total else 0.0
