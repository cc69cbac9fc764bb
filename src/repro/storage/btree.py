"""In-memory B+ tree with page-size accounting.

Models the BoltDB (etcd), MySQL and PostgreSQL storage engines of Table 2:
values live only in the leaves, leaves are chained for range scans, and the
page occupancy statistics feed the storage accounting used in tests.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

from ..crypto.hashing import NULL_HASH

__all__ = ["BPlusTree"]


class _Node:
    # ``digest``/``dirty`` belong to the Merkle overlay
    # (:class:`repro.adt.btm.MerkleBTree`); the plain tree never reads them.
    __slots__ = ("leaf", "keys", "children", "values", "next",
                 "digest", "dirty")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.keys: list = []
        self.children: list["_Node"] = []
        self.values: list = []
        self.next: Optional["_Node"] = None
        self.digest: bytes = NULL_HASH
        self.dirty = True


class BPlusTree:
    """A B+ tree ordered map (default order 64)."""

    def __init__(self, order: int = 64):
        if order < 3:
            raise ValueError("order must be >= 3")
        self.order = order
        self._root = _Node(leaf=True)
        self._size = 0
        # levels root to leaf; only a root split (in ``put``) changes it,
        # since lazy ``delete`` never merges nodes
        self._height = 1

    # -- lookup ---------------------------------------------------------------

    def _find_leaf(self, key) -> _Node:
        node = self._root
        while not node.leaf:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                idx += 1
            node = node.children[idx]
        return node

    def get(self, key, default=None):
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def __contains__(self, key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self._size

    # -- insert ----------------------------------------------------------------

    def put(self, key, value) -> None:
        root = self._root
        result = self._insert(root, key, value)
        if result is not None:
            sep, right = result
            new_root = _Node(leaf=False)
            new_root.keys = [sep]
            new_root.children = [root, right]
            self._root = new_root
            self._height += 1

    def _insert(self, node: _Node, key, value):
        if node.leaf:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            if len(node.keys) >= self.order:
                return self._split_leaf(node)
            return None
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            idx += 1
        result = self._insert(node.children[idx], key, value)
        if result is None:
            return None
        sep, right = result
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.keys) >= self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep, right

    # -- delete ------------------------------------------------------------------

    def delete(self, key) -> bool:
        """Remove ``key``; lazy deletion (no rebalancing), BoltDB-style pages
        reclaim on the next split.  Returns True when the key existed."""
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.keys.pop(idx)
            leaf.values.pop(idx)
            self._size -= 1
            return True
        return False

    # -- scans ------------------------------------------------------------------

    def items(self) -> Iterator[tuple]:
        node = self._root
        while not node.leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next

    def range(self, low, high) -> Iterator[tuple]:
        """Entries with low <= key < high in key order."""
        node = self._find_leaf(low)
        while node is not None:
            for k, v in zip(node.keys, node.values):
                if k >= high:
                    return
                if k >= low:
                    yield k, v
            node = node.next

    # -- structural statistics -----------------------------------------------------

    def depth(self) -> int:
        """Levels from the root to the leaves (every leaf is that deep)."""
        return self._height

    def node_count(self) -> int:
        def count(node: _Node) -> int:
            if node.leaf:
                return 1
            return 1 + sum(count(c) for c in node.children)

        return count(self._root)
