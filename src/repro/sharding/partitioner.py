"""Data partitioning schemes (Section 3.4.1, database side).

Databases form shards to optimize workload performance: hash partitioning
spreads load uniformly over a fixed number of shards.
"""

from __future__ import annotations

import hashlib

__all__ = ["HashPartitioner"]


class HashPartitioner:
    """shard = hash(key) mod num_shards."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.num_shards
