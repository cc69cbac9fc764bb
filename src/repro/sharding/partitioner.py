"""Data partitioning schemes (Section 3.4.1, database side).

Databases form shards to optimize workload performance: hash partitioning
spreads load uniformly over a fixed number of shards.

A key's shard is a pure function of the key and the shard count, so each
partitioner hashes a key once, on its first lookup, and keeps the
``key -> shard`` answer: the cache holds one entry per distinct key the
instance has routed, never more.
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
        self._shards: dict[str, int] = {}

    def shard_of(self, key: str) -> int:
        shard = self._shards.get(key)
        if shard is None:
            digest = hashlib.sha256(key.encode()).digest()
            shard = int.from_bytes(digest[:8], "big") % self.num_shards
            self._shards[key] = shard
        return shard
