"""Probabilistic skip list.

Used as the LSM memtable (LevelDB/RocksDB style) and standing in for the
Redis sorted-value store that backs Veritas in Table 2.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

__all__ = ["SkipList"]

_MAX_LEVEL = 16
_P = 0.25


class _SkipNode:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key, value, level: int):
        self.key = key
        self.value = value
        self.forward: list[Optional["_SkipNode"]] = [None] * level


class SkipList:
    """An ordered map with expected O(log n) insert/lookup/scan.

    ``put`` is Pugh's finger search.  The finger holds, per level, the
    previous put's predecessor (or, at the levels it reached, the node
    it inserted).  A key that sorts after the finger's bottom node
    climbs only as high as the next node one level up still sorts
    before it, then walks down from there; any other key searches from
    the head.  An ascending run of puts (a load, a flush-sized batch)
    so costs O(1) per put instead of a walk from the head.  A node's
    level is drawn only when its key is new, so the structure does not
    depend on where a search started.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._head = _SkipNode(None, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0
        self._finger: list[_SkipNode] = [self._head] * _MAX_LEVEL

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < _P:
            level += 1
        return level

    def put(self, key, value) -> bool:
        """Insert or overwrite ``key``; True when the key is new."""
        finger = self._finger
        node = finger[0]
        if node is self._head or node.key < key:
            top = self._level - 1
            level = 0
            while level < top:
                nxt = finger[level + 1].forward[level + 1]
                if nxt is None or nxt.key >= key:
                    break
                level += 1
            node = finger[level]
        else:
            level = self._level - 1
            node = self._head
        # finger[i] above ``level`` already precede key at their level
        for i in range(level, -1, -1):
            nxt = node.forward[i]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[i]
            finger[i] = node
        candidate = node.forward[0]
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return False
        level = self._random_level()
        if level > self._level:
            self._level = level
        new = _SkipNode(key, value, level)
        forward = new.forward
        for i in range(level):
            pred = finger[i]
            forward[i] = pred.forward[i]
            pred.forward[i] = new
            finger[i] = new
        self._size += 1
        return True

    def get(self, key, default=None):
        node = self._head
        for i in range(self._level - 1, -1, -1):
            while node.forward[i] is not None and node.forward[i].key < key:
                node = node.forward[i]
        node = node.forward[0]
        if node is not None and node.key == key:
            return node.value
        return default

    def __contains__(self, key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[tuple]:
        """All entries in key order."""
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def range(self, low, high) -> Iterator[tuple]:
        """Entries with low <= key < high, in key order."""
        node = self._head
        for i in range(self._level - 1, -1, -1):
            while node.forward[i] is not None and node.forward[i].key < low:
                node = node.forward[i]
        node = node.forward[0]
        while node is not None and node.key < high:
            yield node.key, node.value
            node = node.forward[0]
