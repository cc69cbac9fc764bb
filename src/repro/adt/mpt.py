"""Merkle Patricia Trie (Ethereum/Quorum state organization).

A nibble-path prefix trie with three node kinds (branch, extension, leaf),
each node serialized and stored *content-addressed* — keyed by its SHA-256
digest — in a backing node store, exactly as geth stores trie nodes in
LevelDB.  Because the store is content-addressed and never pruned, every
insert re-writes the path from leaf to root and the **stale versions
accumulate**: this is the mechanism behind the paper's Figure 13, where MPT
costs over 1 kB of storage per record while the Merkle Bucket Tree costs a
few dozen bytes.

The root digest authenticates the full state; ``prove``/``verify_proof``
produce and check the access-path integrity proofs of Section 3.3.2.

Writes go through one insert routine (``_insert_mem``: rebuild the
touched path as in-memory dirty nodes) and one flush (``_flush``: encode
and hash each dirty node once, bottom-up).  What differs is how many keys
share a flush:

* :meth:`MerklePatriciaTrie.put` — per-write: inserts and flushes that one
  key immediately, so every write re-encodes and re-hashes its
  leaf-to-root path (the behaviour the paper's Figure 13 storage-blowup
  measurements rely on).  Other staged keys stay staged;
* :meth:`MerklePatriciaTrie.stage` + :meth:`MerklePatriciaTrie.commit` —
  batched, geth-style: writes accumulate and ``commit()`` inserts them all
  before one flush, so a block of N writes sharing path prefixes costs far
  fewer hash computations than N sequential ``put`` calls while producing
  the byte-identical root digest.

The store keeps each node once, decoded, under the digest of its encoding,
so every trie over one store (each block's historical root included) reads
the same map; only :func:`verify_proof`, which checks untrusted bytes,
decodes.
"""

from __future__ import annotations

from typing import Optional

from ..crypto.hashing import sha256

__all__ = ["NodeStore", "MerklePatriciaTrie", "verify_proof"]

_BRANCH = 0
_EXTENSION = 1
_LEAF = 2

EMPTY_ROOT = sha256(b"mpt:empty")


def _to_nibbles(key: bytes) -> tuple[int, ...]:
    out = []
    for byte in key:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return tuple(out)


def _encode(node: tuple) -> bytes:
    """Unambiguous length-prefixed serialization of a trie node."""
    kind = node[0]
    parts = [bytes([kind])]
    if kind == _BRANCH:
        _tag, children, value = node
        for child in children:
            parts.append(len(child).to_bytes(2, "big"))
            parts.append(child)
        # presence flag keeps an *empty* stored value distinct from
        # "no value at this branch"
        if value is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01")
            parts.append(len(value).to_bytes(4, "big"))
            parts.append(value)
    else:
        _tag, path, payload = node
        packed = bytes(path)
        parts.append(len(packed).to_bytes(2, "big"))
        parts.append(packed)
        parts.append(len(payload).to_bytes(4, "big"))
        parts.append(payload)
    return b"".join(parts)


def _decode(blob: bytes) -> tuple:
    kind = blob[0]
    pos = 1
    if kind == _BRANCH:
        children = []
        for _ in range(16):
            n = int.from_bytes(blob[pos:pos + 2], "big")
            pos += 2
            children.append(blob[pos:pos + n])
            pos += n
        present = blob[pos]
        pos += 1
        if present:
            vlen = int.from_bytes(blob[pos:pos + 4], "big")
            pos += 4
            value = blob[pos:pos + vlen]
        else:
            value = None
        return (_BRANCH, children, value)
    n = int.from_bytes(blob[pos:pos + 2], "big")
    pos += 2
    path = tuple(blob[pos:pos + n])
    pos += n
    vlen = int.from_bytes(blob[pos:pos + 4], "big")
    pos += 4
    payload = blob[pos:pos + vlen]
    return (kind, path, payload)


class NodeStore:
    """Content-addressed node storage (models geth's LevelDB backend).

    Each node is kept once, decoded, under the SHA-256 digest of its
    encoding; ``total_bytes`` counts what the encoded nodes occupy on disk.
    Nodes are never deleted: stale versions of rewritten paths remain, just
    like an unpruned Ethereum state database.
    """

    def __init__(self):
        self._nodes: dict[bytes, tuple] = {}
        self._bytes = 0
        self.puts = 0

    def put(self, node: tuple) -> bytes:
        blob = _encode(node)
        digest = sha256(blob)
        self.puts += 1
        # Content-addressing dedups equal nodes automatically.
        if digest not in self._nodes:
            self._nodes[digest] = node
            self._bytes += 32 + len(blob)
        return digest

    def get(self, digest: bytes) -> tuple:
        return self._nodes[digest]

    def __len__(self) -> int:
        return len(self._nodes)

    def total_bytes(self) -> int:
        """Bytes on disk: 32-byte key plus encoding per stored node."""
        return self._bytes


class MerklePatriciaTrie:
    """An MPT over byte-string keys and values."""

    def __init__(self, store: Optional[NodeStore] = None,
                 root: bytes = EMPTY_ROOT):
        self.store = store if store is not None else NodeStore()
        self.root = root
        # hash-computation counter: systems charge crypto cost per node hash
        self.hashes_computed = 0
        # staged writes applied by commit(); last write per key wins
        self._pending: dict[bytes, bytes] = {}

    # -- helpers ------------------------------------------------------------

    # Stored nodes are shared by every trie over the store: they are
    # immutable by convention (every mutation path copies before changing
    # children).

    def _store(self, node: tuple) -> bytes:
        self.hashes_computed += 1
        return self.store.put(node)

    def _load(self, digest: bytes) -> Optional[tuple]:
        if digest == EMPTY_ROOT or not digest:
            return None
        return self.store._nodes[digest]   # one lookup on the hot path

    # -- public API ----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> bytes:
        """Insert/overwrite ``key`` and return the new root digest.

        One key's insert flushed at once; other staged writes stay
        staged until :meth:`commit`.
        """
        if not key:
            raise ValueError("empty key")
        if self._pending:
            # This write supersedes any older staged write for the key —
            # otherwise the stale staged value would clobber it at commit.
            self._pending.pop(key, None)
        self.root = self._flush(
            self._insert_mem(self.root, _to_nibbles(key), value))
        return self.root

    def get(self, key: bytes) -> Optional[bytes]:
        if self._pending:
            staged = self._pending.get(key)
            if staged is not None:
                return staged
        node = self._load(self.root)
        nibbles = _to_nibbles(key)
        while node is not None:
            kind = node[0]
            if kind == _LEAF:
                return node[2] if node[1] == nibbles else None
            if kind == _EXTENSION:
                path = node[1]
                if nibbles[:len(path)] != path:
                    return None
                nibbles = nibbles[len(path):]
                node = self._load(bytes(node[2]))
                continue
            # branch
            if not nibbles:
                return node[2]
            child = node[1][nibbles[0]]
            if not child:
                return None
            nibbles = nibbles[1:]
            node = self._load(bytes(child))
        return None

    # -- batched commits ------------------------------------------------------

    def stage(self, key: bytes, value: bytes) -> None:
        """Buffer a write; :meth:`commit` folds all staged writes at once."""
        if not key:
            raise ValueError("empty key")
        self._pending[key] = value

    @property
    def staged(self) -> int:
        """Number of keys currently staged for the next commit."""
        return len(self._pending)

    def commit(self) -> bytes:
        """Apply all staged writes, hashing each touched node exactly once.

        Equivalent to calling :meth:`put` per staged key — the root digest
        is byte-identical — but the dirty sub-trie is kept as plain
        in-memory nodes while the batch is applied and only serialized +
        hashed in a single bottom-up pass, geth-style.  Intermediate
        versions of rewritten paths are therefore *not* written to the
        store (a block commits one state transition, not N).
        """
        if not self._pending:
            return self.root
        ref: object = self.root
        for key, value in self._pending.items():
            ref = self._insert_mem(ref, _to_nibbles(key), value)
        self._pending.clear()
        self.root = self._flush(ref)
        return self.root

    # Dirty nodes are lists ([kind, ...], children may mix digests and
    # dirty lists); clean nodes are referenced by digest (bytes).

    def _load_mut(self, ref) -> Optional[list]:
        """Resolve a node reference into a mutable (dirty) node, or None."""
        if isinstance(ref, list):
            return ref
        node = self._load(bytes(ref))
        if node is None:
            return None
        if node[0] == _BRANCH:
            return [_BRANCH, list(node[1]), node[2]]
        return [node[0], node[1], node[2]]

    def _insert_mem(self, ref, nibbles: tuple[int, ...], value: bytes) -> list:
        node = self._load_mut(ref)
        if node is None:
            return [_LEAF, nibbles, value]
        kind = node[0]
        if kind == _LEAF:
            return self._merge_leaf_mem(node, nibbles, value)
        if kind == _EXTENSION:
            return self._descend_extension_mem(node, nibbles, value)
        return self._descend_branch_mem(node, nibbles, value)

    def _merge_leaf_mem(self, leaf: list, nibbles: tuple[int, ...],
                        value: bytes) -> list:
        existing_path, existing_value = leaf[1], leaf[2]
        if existing_path == nibbles:
            return [_LEAF, nibbles, value]
        common = 0
        while (common < len(existing_path) and common < len(nibbles)
               and existing_path[common] == nibbles[common]):
            common += 1
        children: list = [b""] * 16
        branch_value = None
        for path, val in ((existing_path[common:], existing_value),
                          (nibbles[common:], value)):
            if not path:
                branch_value = val
            else:
                children[path[0]] = [_LEAF, path[1:], val]
        branch = [_BRANCH, children, branch_value]
        if common:
            return [_EXTENSION, nibbles[:common], branch]
        return branch

    def _descend_extension_mem(self, ext: list, nibbles: tuple[int, ...],
                               value: bytes) -> list:
        path, child_ref = ext[1], ext[2]
        if isinstance(child_ref, (bytes, bytearray)):
            child_ref = bytes(child_ref)
        common = 0
        while (common < len(path) and common < len(nibbles)
               and path[common] == nibbles[common]):
            common += 1
        if common == len(path):
            new_child = self._insert_mem(child_ref, nibbles[common:], value)
            return [_EXTENSION, path, new_child]
        children: list = [b""] * 16
        branch_value = None
        remainder = path[common:]
        if len(remainder) == 1:
            children[remainder[0]] = child_ref
        else:
            children[remainder[0]] = [_EXTENSION, remainder[1:], child_ref]
        new_path = nibbles[common:]
        if not new_path:
            branch_value = value
        else:
            children[new_path[0]] = [_LEAF, new_path[1:], value]
        branch = [_BRANCH, children, branch_value]
        if common:
            return [_EXTENSION, path[:common], branch]
        return branch

    def _descend_branch_mem(self, branch: list, nibbles: tuple[int, ...],
                            value: bytes) -> list:
        children = branch[1]
        if not nibbles:
            return [_BRANCH, children, value]
        slot = nibbles[0]
        child = children[slot]
        if isinstance(child, (bytes, bytearray)):
            child = bytes(child) if child else EMPTY_ROOT
        children[slot] = self._insert_mem(child, nibbles[1:], value)
        return [_BRANCH, children, branch[2]]

    def _flush(self, ref) -> bytes:
        """Serialize + hash a dirty sub-trie bottom-up, one hash per node."""
        if not isinstance(ref, list):
            return bytes(ref)
        kind = ref[0]
        if kind == _LEAF:
            return self._store((_LEAF, ref[1], ref[2]))
        if kind == _EXTENSION:
            return self._store((_EXTENSION, ref[1], self._flush(ref[2])))
        children = [child if isinstance(child, bytes) else
                    (b"" if not child else self._flush(child))
                    for child in ref[1]]
        return self._store((_BRANCH, children, ref[2]))

    # -- proofs ---------------------------------------------------------------

    def prove(self, key: bytes) -> list[bytes]:
        """Serialized nodes along the access path (root first)."""
        proof: list[bytes] = []
        digest = self.root
        nibbles = _to_nibbles(key)
        while True:
            node = self._load(digest)
            if node is None:
                return proof
            proof.append(_encode(node))
            kind = node[0]
            if kind == _LEAF:
                return proof
            if kind == _EXTENSION:
                path = node[1]
                if nibbles[:len(path)] != path:
                    return proof
                nibbles = nibbles[len(path):]
                digest = bytes(node[2])
                continue
            if not nibbles:
                return proof
            child = node[1][nibbles[0]]
            if not child:
                return proof
            nibbles = nibbles[1:]
            digest = bytes(child)

    def depth(self, key: bytes) -> int:
        """Number of nodes on the access path for ``key``."""
        return len(self.prove(key))


def verify_proof(root: bytes, key: bytes, value: bytes,
                 proof: list[bytes]) -> bool:
    """Check an MPT access-path proof against a trusted ``root`` digest."""
    if not proof:
        return False
    if sha256(proof[0]) != root:
        return False
    nibbles = _to_nibbles(key)
    for i, blob in enumerate(proof):
        node = _decode(blob)
        kind = node[0]
        if kind == _LEAF:
            return node[1] == nibbles and node[2] == value
        if i + 1 >= len(proof):
            return False
        expected_child = sha256(proof[i + 1])
        if kind == _EXTENSION:
            path = node[1]
            if nibbles[:len(path)] != path:
                return False
            nibbles = nibbles[len(path):]
            if bytes(node[2]) != expected_child:
                return False
        else:  # branch
            if not nibbles:
                return node[2] == value
            if bytes(node[1][nibbles[0]]) != expected_child:
                return False
            nibbles = nibbles[1:]
    return False
