"""Merkle B+ tree (FalconDB / IntegriDB-style authenticated index).

Table 2's ``b-tree + merkle tree`` storage choice: the plain
:class:`~repro.storage.btree.BPlusTree` index (values in the leaves,
leaves chained) plus a digest overlay.  Every node carries a digest — a
leaf hashes its entries, an internal node hashes its children's digests —
so the root digest authenticates the full key-value state, and an access
path plus sibling digests is an integrity proof (Section 3.3.2).

Unlike the MPT's content-addressed node store, nodes are updated in place
and only the *dirty* paths are re-hashed at :meth:`MerkleBTree.commit`
(FalconDB batches IntegriDB digest maintenance per block the same way), so
the per-record storage overhead is a couple of digests — between the MPT's
>1 kB and the fixed-scale bucket tree's few dozen bytes in the paper's
Figure 13 ordering.

Write protocol parity with the other authenticated structures: ``put`` /
``stage`` insert immediately (visible to ``get``) and mark the path dirty;
``commit()`` folds all dirty nodes into a fresh root, hashing each dirty
node exactly once.
"""

from __future__ import annotations

from bisect import bisect_left

from ..crypto.hashing import hash_concat
from ..storage.btree import BPlusTree, _Node

__all__ = ["MerkleBTree"]


class MerkleBTree(BPlusTree):
    """A B+ tree over bytes keys/values with a Merkle digest overlay."""

    def __init__(self, order: int = 64):
        super().__init__(order)
        self.hashes_computed = 0
        self._staged = 0

    # -- mutation -------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert/overwrite; digests fold into the root at :meth:`commit`."""
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("MerkleBTree keys/values are bytes")
        super().put(key, value)
        self._staged += 1

    # stage()/commit() protocol parity with the MPT and MBT: writes are
    # applied (and readable) immediately, the dirty-path digests fold at
    # commit().
    stage = put

    @property
    def staged(self) -> int:
        """Writes applied since the last commit (dirty-path granularity)."""
        return self._staged

    def delete(self, key) -> bool:
        """Refused: a removal would leave its path's digests stale."""
        raise NotImplementedError("MerkleBTree keys cannot be deleted")

    def _insert(self, node: _Node, key, value):
        # The base recursion calls back into this override, so every node
        # on the root-to-leaf path is marked; split-off nodes start dirty.
        node.dirty = True
        return super()._insert(node, key, value)

    # -- digest maintenance ----------------------------------------------------

    def commit(self) -> bytes:
        """Re-hash every dirty node bottom-up; return the fresh root digest."""
        self._fold(self._root)
        self._staged = 0
        return self._root.digest

    def _fold(self, node: _Node) -> bytes:
        if not node.dirty:
            return node.digest
        self.hashes_computed += 1
        if node.leaf:
            parts = []
            for key, value in zip(node.keys, node.values):
                parts.append(key)
                parts.append(value)
            node.digest = hash_concat(b"leaf", *parts)
        else:
            node.digest = hash_concat(
                b"node", *(self._fold(child) for child in node.children))
        node.dirty = False
        return node.digest

    @property
    def root(self) -> bytes:
        """Digest as of the last :meth:`commit` (dirty paths excluded)."""
        return self._root.digest

    # -- proofs ----------------------------------------------------------------

    def prove(self, key: bytes) -> dict:
        """Integrity proof: leaf entries + sibling digest groups to the root.

        Only valid when no writes are pending (``commit`` first).
        """
        path: list[tuple[_Node, int]] = []
        node = self._root
        while not node.leaf:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                idx += 1
            path.append((node, idx))
            node = node.children[idx]
        groups = [([child.digest for child in parent.children], idx)
                  for parent, idx in reversed(path)]
        return {"entries": list(zip(node.keys, node.values)),
                "groups": groups}

    @staticmethod
    def verify_proof(key: bytes, value: bytes, proof: dict,
                     root: bytes) -> bool:
        """Check a proof produced by :meth:`prove` against ``root``."""
        entries = dict(proof["entries"])
        if entries.get(key) != value:
            return False
        parts = []
        for k, v in proof["entries"]:
            parts.append(k)
            parts.append(v)
        digest = hash_concat(b"leaf", *parts)
        for group, idx in proof["groups"]:
            if not 0 <= idx < len(group) or group[idx] != digest:
                return False
            digest = hash_concat(b"node", *group)
        return digest == root

    # -- accounting ------------------------------------------------------------

    def total_bytes(self) -> int:
        """On-disk bytes: entries plus one 32-byte digest per node."""
        entry_bytes = sum(len(k) + len(v) + 8 for k, v in self.items())
        return entry_bytes + 32 * self.node_count()
