"""Merkle Bucket Tree (Hyperledger Fabric v0.6 state organization).

Keys hash into a *fixed* number of buckets; a Merkle tree of configurable
fan-out is built over the bucket digests.  Because the tree scale is fixed
(1000 buckets, fan-out 4 gives depth ceil(log4 1000) = 5 in the paper's
setup), the per-record storage overhead is a small constant — the paper's
Figure 13 contrast with the MPT's >1 kB per record.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..crypto.hashing import NULL_HASH, hash_concat

__all__ = ["MerkleBucketTree"]


class MerkleBucketTree:
    """A fixed-scale bucketed Merkle tree over a key-value state."""

    def __init__(self, num_buckets: int = 1000, fanout: int = 4):
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.num_buckets = num_buckets
        self.fanout = fanout
        self._buckets: list[dict[bytes, bytes]] = [dict() for _ in range(num_buckets)]
        self._bucket_hashes: list[bytes] = [NULL_HASH] * num_buckets
        # level widths from leaves (buckets) up to the root
        self._level_sizes: list[int] = []
        width = num_buckets
        while width > 1:
            width = (width + fanout - 1) // fanout
            self._level_sizes.append(width)
        self._levels: list[list[bytes]] = [
            [NULL_HASH] * w for w in self._level_sizes
        ]
        self._dirty: set[int] = set()
        self.hashes_computed = 0
        self._recompute_all()

    # -- key placement ------------------------------------------------------

    def bucket_of(self, key: bytes) -> int:
        digest = hashlib.sha256(b"bucket:" + key).digest()
        return int.from_bytes(digest[:8], "big") % self.num_buckets

    # -- mutation -------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Stage a write; call :meth:`commit` to fold it into the root."""
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("MBT keys/values are bytes")
        idx = self.bucket_of(key)
        self._buckets[idx][key] = value
        self._dirty.add(idx)

    # stage()/commit() protocol parity with MerklePatriciaTrie: MBT writes
    # are inherently staged (dirty buckets fold into the root at commit()).
    # Unlike the MPT overlay, staged MBT writes are immediately visible via
    # get(), and ``staged`` below counts dirty *buckets*, not keys.
    stage = put

    @property
    def staged(self) -> int:
        """Number of dirty buckets awaiting the next commit.

        Bucket granularity, not key granularity: many staged keys hashing
        into the same bucket count once.
        """
        return len(self._dirty)

    def delete(self, key: bytes) -> None:
        idx = self.bucket_of(key)
        if key in self._buckets[idx]:
            del self._buckets[idx][key]
            self._dirty.add(idx)

    def commit(self) -> bytes:
        """Recompute digests along dirty paths; return the new root."""
        touched = sorted(self._dirty)
        self._dirty.clear()
        for idx in touched:
            self._bucket_hashes[idx] = self._hash_bucket(idx)
        parents = sorted({idx // self.fanout for idx in touched})
        below = self._bucket_hashes
        for level, width in enumerate(self._level_sizes):
            row = self._levels[level]
            next_parents = set()
            for p in parents:
                start = p * self.fanout
                children = below[start:start + self.fanout]
                self.hashes_computed += 1
                row[p] = hash_concat(*children)
                next_parents.add(p // self.fanout)
            below = row
            parents = sorted(next_parents) if width > 1 else []
        return self.root

    def _hash_bucket(self, idx: int) -> bytes:
        entries = sorted(self._buckets[idx].items())
        self.hashes_computed += 1
        if not entries:
            return NULL_HASH
        parts = []
        for key, value in entries:
            parts.append(key)
            parts.append(value)
        return hash_concat(*parts)

    def _recompute_all(self) -> None:
        self._dirty.update(range(self.num_buckets))
        self.commit()

    # -- queries ---------------------------------------------------------------

    @property
    def root(self) -> bytes:
        if self._levels:
            return self._levels[-1][0]
        return self._bucket_hashes[0]

    def get(self, key: bytes) -> Optional[bytes]:
        return self._buckets[self.bucket_of(key)].get(key)

    @property
    def depth(self) -> int:
        """Tree depth above the buckets: ceil(log_fanout(num_buckets))."""
        return len(self._level_sizes)

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets)

    # -- storage accounting (Fig. 13) -------------------------------------------

    def total_bytes(self) -> int:
        """On-disk bytes: entries (key + value + lengths) plus all digests."""
        entry_bytes = 0
        for bucket in self._buckets:
            for key, value in bucket.items():
                entry_bytes += len(key) + len(value) + 8  # two length prefixes
        digest_bytes = 32 * (self.num_buckets + sum(self._level_sizes))
        return entry_bytes + digest_bytes

    def overhead_per_record(self, record_size: int) -> float:
        """Storage overhead per record beyond the raw values."""
        n = len(self)
        if n == 0:
            return 0.0
        return (self.total_bytes() - n * record_size) / n

    # -- proofs -----------------------------------------------------------------

    def prove(self, key: bytes) -> dict:
        """Integrity proof: the full bucket plus sibling digests to the root."""
        idx = self.bucket_of(key)
        entries = sorted(self._buckets[idx].items())
        siblings: list[list[bytes]] = []
        below = self._bucket_hashes
        pos = idx
        for level, _width in enumerate(self._level_sizes):
            start = (pos // self.fanout) * self.fanout
            group = list(below[start:start + self.fanout])
            siblings.append(group)
            pos //= self.fanout
            below = self._levels[level]
        return {"bucket": idx, "entries": entries, "groups": siblings}

    def verify_proof(self, key: bytes, value: bytes, proof: dict,
                     root: bytes) -> bool:
        """Check a proof produced by :meth:`prove` against ``root``."""
        entries = dict(proof["entries"])
        if entries.get(key) != value:
            return False
        sorted_entries = sorted(entries.items())
        if sorted_entries:
            parts = []
            for k, v in sorted_entries:
                parts.append(k)
                parts.append(v)
            digest = hash_concat(*parts)
        else:
            digest = NULL_HASH
        pos = proof["bucket"]
        for group in proof["groups"]:
            if group[pos % self.fanout] != digest:
                return False
            digest = hash_concat(*group)
            pos //= self.fanout
        return digest == root
