"""Immutable sorted-string tables for the LSM engine.

An SSTable is a sorted, immutable run of key-value entries with a sparse
index (one anchor per block) and a small Bloom filter — the LevelDB layout
TiKV, LevelDB and RocksDB share in Table 2.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from hashlib import sha256
from typing import Iterator, Optional

__all__ = ["BloomFilter", "SSTable"]

TOMBSTONE = b"\x00__tombstone__"

# the three 8-byte big-endian probe words at the head of a key's sha256
_PROBE_WORDS = struct.Struct(">3Q")


class BloomFilter:
    """A fixed-size Bloom filter (k=3 hash probes)."""

    def __init__(self, capacity: int, bits_per_key: int = 10):
        self.nbits = max(64, capacity * bits_per_key)
        self._bits = bytearray((self.nbits + 7) // 8)

    def _probes(self, key: bytes) -> tuple[int, int, int]:
        """The key's three bit positions: one sha256, three words."""
        nbits = self.nbits
        a, b, c = _PROBE_WORDS.unpack_from(sha256(key).digest())
        return a % nbits, b % nbits, c % nbits

    def add(self, key: bytes) -> None:
        bits = self._bits
        for bit in self._probes(key):
            bits[bit >> 3] |= 1 << (bit & 7)

    def may_contain(self, key: bytes) -> bool:
        bits = self._bits
        for bit in self._probes(key):
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True


class SSTable:
    """An immutable sorted run."""

    def __init__(self, entries: list[tuple[bytes, bytes]], level: int = 0,
                 block_size: int = 16):
        for i in range(1, len(entries)):
            if entries[i - 1][0] >= entries[i][0]:
                raise ValueError("SSTable entries must be strictly sorted")
        self._keys = [k for k, _ in entries]
        self._values = [v for _, v in entries]
        self.level = level
        self.block_size = block_size
        self.bloom = BloomFilter(max(1, len(entries)))
        for key in self._keys:
            self.bloom.add(key)
        # sparse index: first key of each block
        self._anchors = self._keys[::block_size]

    @property
    def min_key(self) -> Optional[bytes]:
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[bytes]:
        return self._keys[-1] if self._keys else None

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the stored value, TOMBSTONE, or None when absent."""
        if not self._keys or key < self._keys[0] or key > self._keys[-1]:
            return None
        if not self.bloom.may_contain(key):
            return None
        keys = self._keys
        i = bisect_left(keys, key)
        if keys[i] == key:
            return self._values[i]
        return None

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return zip(self._keys, self._values)

    def overlaps(self, other: "SSTable") -> bool:
        if not self._keys or not len(other):
            return False
        return not (self.max_key < other.min_key or other.max_key < self.min_key)

    def data_bytes(self) -> int:
        """Approximate on-disk size: entries + sparse index + bloom bits."""
        entries = sum(len(k) + len(v) + 8
                      for k, v in zip(self._keys, self._values))
        index = sum(len(a) + 8 for a in self._anchors)
        return entries + index + len(self.bloom._bits)
