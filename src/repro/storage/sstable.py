"""Immutable sorted-string tables for the LSM engine.

An SSTable is a sorted, immutable run of key-value entries with a sparse
index (one anchor per block) and a small Bloom filter — the LevelDB layout
TiKV, LevelDB and RocksDB share in Table 2.  A table checks its key order
in one pass.  It fills its filter on the first read of :attr:`SSTable.bloom`
(a point lookup or an inspection of the bits), with one
:meth:`BloomFilter.add_many` call over its keys, which sets the bits one
:meth:`BloomFilter.add` per key would; a table nothing reads never hashes
a key.  Its size (:meth:`SSTable.data_bytes`) counts the filter from
:meth:`BloomFilter.sizing`, the arithmetic the filter itself is built
from, so size accounting never forces a fill.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from hashlib import sha256
from itertools import islice
from operator import itemgetter, lt
from typing import Iterable, Iterator, Optional

__all__ = ["BloomFilter", "SSTable"]

TOMBSTONE = b"\x00__tombstone__"

# the three 8-byte big-endian probe words at the head of a key's sha256
_PROBE_WORDS = struct.Struct(">3Q")


class BloomFilter:
    """A fixed-size Bloom filter (k=3 hash probes)."""

    def __init__(self, capacity: int, bits_per_key: int = 10):
        self.nbits, nbytes = self.sizing(capacity, bits_per_key)
        self._bits = bytearray(nbytes)

    @staticmethod
    def sizing(capacity: int, bits_per_key: int = 10) -> tuple[int, int]:
        """The bit count and byte length of a filter for ``capacity``
        keys (the one place that arithmetic lives)."""
        nbits = max(64, capacity * bits_per_key)
        return nbits, (nbits + 7) // 8

    def _probes(self, key: bytes) -> tuple[int, int, int]:
        """The key's three bit positions: one sha256, three words."""
        nbits = self.nbits
        a, b, c = _PROBE_WORDS.unpack_from(sha256(key).digest())
        return a % nbits, b % nbits, c % nbits

    def add(self, key: bytes) -> None:
        self.add_many((key,))

    def add_many(self, keys: Iterable[bytes]) -> None:
        """Set every key's three probe bits, in one loop.

        The probes are :meth:`_probes`' (one sha256 per key, three
        words, each modulo ``nbits``), so the bits equal those of one
        :meth:`add` per key in any order.
        """
        bits = self._bits
        nbits = self.nbits
        unpack = _PROBE_WORDS.unpack_from
        for key in keys:
            for word in unpack(sha256(key).digest()):
                bit = word % nbits
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
        keys = self._keys = list(map(itemgetter(0), entries))
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("SSTable entries must be strictly sorted")
        self._values = list(map(itemgetter(1), entries))
        self.level = level
        self.block_size = block_size
        self._bloom: Optional[BloomFilter] = None
        # sparse index: first key of each block
        self._anchors = self._keys[::block_size]

    @property
    def bloom(self) -> BloomFilter:
        """The table's filter over its keys, filled on first read."""
        bloom = self._bloom
        if bloom is None:
            bloom = self._bloom = BloomFilter(len(self._keys))
            bloom.add_many(self._keys)
        return bloom

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
        entries = (sum(map(len, self._keys)) + sum(map(len, self._values))
                   + 8 * len(self._keys))
        index = sum(map(len, self._anchors)) + 8 * len(self._anchors)
        _, bloom = BloomFilter.sizing(len(self._keys))
        return entries + index + bloom
