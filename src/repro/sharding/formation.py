"""Shard formation and reconfiguration (Section 3.4.1, blockchain side).

Blockchain shard formation must be Sybil-resistant and unbiased: the
assignment uses verifiable randomness seeded by PoW solutions (Elastico),
stake (Eth2), or trusted hardware attestation (AHL).  The shard size must
keep the per-shard Byzantine fraction below the BFT threshold with high
probability; AHL's simulated shards have a fixed size
(``AhlSystem.NODES_PER_SHARD``) and nothing here computes that bound.
Periodic reconfiguration defends against adaptive adversaries at a
throughput cost (Figure 14's AHL-with-reconfiguration line is ~30% below
fixed membership).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional

__all__ = [
    "FormationMethod",
    "ShardFormation",
    "ReconfigurationSchedule",
]


class FormationMethod(Enum):
    POW_LOTTERY = "pow"          # Elastico: PoW solution selects the shard
    POS_SAMPLING = "pos"         # Eth2: stake-weighted validator sampling
    TEE_ATTESTED = "tee"         # AHL: trusted hardware randomness


@dataclass
class ShardFormation:
    """A Sybil-resistant, randomness-seeded shard assignment."""

    num_shards: int
    method: FormationMethod = FormationMethod.TEE_ATTESTED
    epoch: int = 0

    def assign(self, node_names: list[str],
               epoch_seed: Optional[bytes] = None) -> dict[int, list[str]]:
        """Assign nodes to shards using epoch randomness.

        The assignment is deterministic in (epoch, seed, node id) — an
        attacker cannot bias their own placement because the seed comes
        from the beacon (PoW chain / randao / TEE), not from the node.
        """
        seed = epoch_seed or self.epoch.to_bytes(8, "big")
        buckets: dict[int, list[str]] = {i: [] for i in range(self.num_shards)}
        ranked = sorted(
            node_names,
            key=lambda n: hashlib.sha256(
                seed + self.method.value.encode() + n.encode()).digest())
        for i, name in enumerate(ranked):
            buckets[i % self.num_shards].append(name)
        return buckets

    def reconfigure(self, node_names: list[str]) -> dict[int, list[str]]:
        """Advance the epoch and re-draw the assignment."""
        self.epoch += 1
        return self.assign(node_names)


@dataclass
class ReconfigurationSchedule:
    """Periodic shard reshuffling with a per-epoch pause.

    During the pause (state migration + re-attestation), shards process
    no transactions; effective throughput is scaled by the duty cycle.
    AHL's reported ~30% loss corresponds to pause/period = 0.3.
    """

    period: float = 30.0
    pause: float = 9.0

    def __post_init__(self):
        if not 0 <= self.pause < self.period:
            raise ValueError("pause must be within [0, period)")

    @property
    def duty_cycle(self) -> float:
        return 1.0 - self.pause / self.period

    def is_paused(self, now: float) -> bool:
        return (now % self.period) >= (self.period - self.pause)

    def effective_throughput(self, raw_tps: float) -> float:
        return raw_tps * self.duty_cycle
