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

Writes go through one routine, ``_merge``: a recursive merge of sorted
``(nibbles, value)`` pairs into the stored trie.  It loads each node on a
touched path once, builds the new nodes a split or a fresh key needs, and
encodes and hashes each node once, as the recursion returns.  What differs
is how many keys share a merge:

* :meth:`MerklePatriciaTrie.put` — per-write: merges that one key at once,
  so every write re-encodes and re-hashes its leaf-to-root path (the
  behaviour the paper's Figure 13 storage-blowup measurements rely on).
  Other staged keys stay staged;
* :meth:`MerklePatriciaTrie.stage` + :meth:`MerklePatriciaTrie.commit` —
  batched, geth-style: writes accumulate and ``commit()`` merges them all
  in one pass, so a block of N writes sharing path prefixes costs far
  fewer hash computations than N sequential ``put`` calls while producing
  the byte-identical root digest.

Nibble paths are ``bytes`` with one nibble (0–15) per byte.  The store
keeps each node once, decoded, under the digest of its encoding, so every
trie over one store (each block's historical root included) reads the same
map; only :func:`verify_proof`, which checks untrusted bytes, decodes.

Each node kind is stored with one typed call: :meth:`NodeStore.put_path`
for a leaf or an extension, :meth:`NodeStore.put_branch` for a branch.
Each builds its encoding from precomputed length-prefix tables and hashes
it with ``hashlib`` directly; :meth:`NodeStore.put` and the proof encoder
use the same two blob builders, so there is one encoding.  A stored
branch holds its children as a tuple of digests (``b""`` for an empty
slot): a merge copies them into a list before it edits them, and a tuple
of ``bytes`` drops out of cyclic-GC tracking.

Counting: ``NodeStore.puts`` counts every node stored, equal nodes
included — one put is one node hash, whether or not the content-addressed
store already held the node.  A trie's ``hashes_computed`` is the puts
its own merges made, which systems charge as crypto cost.
"""

from __future__ import annotations

from bisect import bisect_left
from hashlib import sha256 as _sha256
from typing import Optional

from ..crypto.hashing import sha256

__all__ = ["NodeStore", "MerklePatriciaTrie", "verify_proof"]

_BRANCH = 0
_EXTENSION = 1
_LEAF = 2

EMPTY_ROOT = sha256(b"mpt:empty")

_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
# one past each nibble: bounds a branch slot's run of sorted keys
_NEXT = tuple(bytes([n + 1]) for n in range(16))


def _prefix(lead: bytes, n: int, width: int) -> bytes:
    """``lead`` + ``n`` as a ``width``-byte big-endian length prefix."""
    return lead + n.to_bytes(width, "big")


# Length prefixes precomputed for every length under _TABLE: a leaf or
# extension head (kind byte + 2-byte path length), a 4-byte payload
# length, and the 2-byte length of a branch child (a digest or empty).
_TABLE = 1024
_PATH_HEAD = (None,) + tuple(   # indexed by kind; a branch has no path
    tuple(_prefix(bytes([kind]), n, 2) for n in range(_TABLE))
    for kind in (_EXTENSION, _LEAF))
_PAYLOAD_LEN = tuple(_prefix(b"", n, 4) for n in range(_TABLE))
_CHILD_LEN = tuple(_prefix(b"", n, 2) for n in range(33))


def _path_blob(kind: int, path: bytes, tail: bytes) -> bytes:
    """Encoding of a leaf (``tail`` is the value) or an extension
    (``tail`` is the child digest)."""
    try:
        return (_PATH_HEAD[kind][len(path)] + path
                + _PAYLOAD_LEN[len(tail)] + tail)
    except IndexError:   # a length past the tables
        return (_prefix(bytes([kind]), len(path), 2) + path
                + _prefix(b"", len(tail), 4) + tail)


def _branch_blob(children, value: Optional[bytes]) -> bytes:
    """Encoding of a branch: 16 length-prefixed child digests, then the
    value behind a presence flag that keeps an *empty* stored value
    distinct from "no value at this branch"."""
    parts = [b"\x00"]
    append = parts.append
    for child in children:
        append(_CHILD_LEN[len(child)])
        append(child)
    if value is None:
        append(b"\x00")
    else:
        parts += (b"\x01", _prefix(b"", len(value), 4), value)
    return b"".join(parts)


def _to_nibbles(key: bytes) -> bytes:
    return key.hex().encode().translate(_NIBBLE)


def _lcp(a: bytes, b: bytes) -> int:
    """Length of the common prefix of two nibble paths."""
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    if a == b:
        return n
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return n - 1 - (diff.bit_length() - 1) // 8


def _encode(node: tuple) -> bytes:
    """Unambiguous length-prefixed serialization of a trie node."""
    kind, body, tail = node
    if kind == _BRANCH:
        return _branch_blob(body, tail)
    return _path_blob(kind, body, tail)


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
    path = blob[pos:pos + n]
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
    like an unpruned Ethereum state database.  ``puts`` counts every node
    stored, equal ones included: one put is one node hash.
    """

    def __init__(self):
        self._nodes: dict[bytes, tuple] = {}
        self._bytes = 0
        self.puts = 0

    def put(self, node: tuple) -> bytes:
        kind, body, tail = node
        if kind == _BRANCH:
            return self.put_branch(body, tail)
        return self.put_path(kind, body, tail)

    def put_path(self, kind: int, path: bytes, tail: bytes) -> bytes:
        """Store a leaf (``tail`` = value) or an extension (``tail`` =
        child digest); return its digest."""
        blob = _path_blob(kind, path, tail)
        digest = _sha256(blob).digest()
        self.puts += 1
        # Content-addressing dedups equal nodes automatically.
        if digest not in self._nodes:
            self._nodes[digest] = (kind, path, tail)
            self._bytes += 32 + len(blob)
        return digest

    def put_branch(self, children, value: Optional[bytes]) -> bytes:
        """Store a branch over 16 child digests (``b""`` for an empty
        slot); return its digest.  The stored node holds them as a tuple."""
        blob = _branch_blob(children, value)
        digest = _sha256(blob).digest()
        self.puts += 1
        if digest not in self._nodes:
            self._nodes[digest] = (_BRANCH, tuple(children), value)
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
    # immutable by convention (a merge builds new nodes, never edits one).

    def _load(self, digest: bytes) -> Optional[tuple]:
        if digest == EMPTY_ROOT or not digest:
            return None
        return self.store._nodes[digest]   # one lookup on the hot path

    def _apply(self, items: list) -> bytes:
        """Merge sorted ``items`` at the root.  Every node the merge
        stores is one hash, so the hashes computed are the store's puts
        during the merge."""
        store = self.store
        before = store.puts
        self.root = self._merge(self._load(self.root), items, 0)
        self.hashes_computed += store.puts - before
        return self.root

    # -- public API ----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> bytes:
        """Insert/overwrite ``key`` and return the new root digest.

        One key merged at once; other staged writes stay staged until
        :meth:`commit`.
        """
        if not key:
            raise ValueError("empty key")
        if self._pending:
            # This write supersedes any older staged write for the key —
            # otherwise the stale staged value would clobber it at commit.
            self._pending.pop(key, None)
        return self._apply([(_to_nibbles(key), value)])

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
                if not nibbles.startswith(path):
                    return None
                nibbles = nibbles[len(path):]
                node = self._load(node[2])
                continue
            # branch
            if not nibbles:
                return node[2]
            child = node[1][nibbles[0]]
            if not child:
                return None
            nibbles = nibbles[1:]
            node = self._load(child)
        return None

    # -- batched commits ------------------------------------------------------

    def stage(self, key: bytes, value: bytes) -> None:
        """Buffer a write; :meth:`commit` folds all staged writes at once."""
        if not key:
            raise ValueError("empty key")
        self._pending[key] = value

    def stage_many(self, items) -> None:
        """Buffer ``(key, value)`` pairs as :meth:`stage` would, in order;
        an empty key raises before any pair is staged."""
        staged = dict(items)
        if b"" in staged:
            raise ValueError("empty key")
        self._pending.update(staged)

    @property
    def staged(self) -> int:
        """Number of keys currently staged for the next commit."""
        return len(self._pending)

    def commit(self) -> bytes:
        """Apply all staged writes, hashing each touched node exactly once.

        Equivalent to calling :meth:`put` per staged key — the root digest
        is byte-identical — but the sorted keys are merged in one pass, so
        a node on several keys' paths is loaded, encoded and hashed once.
        Intermediate versions of rewritten paths are therefore *not*
        written to the store (a block commits one state transition, not N).
        """
        pending = self._pending
        if not pending:
            return self.root
        items = [(key.hex().encode().translate(_NIBBLE), value)
                 for key, value in sorted(pending.items())]
        pending.clear()
        return self._apply(items)

    # ``items`` below are sorted (nibbles, value) pairs with distinct keys
    # that share their first ``d`` nibbles; ``d`` is the depth of the node
    # they are merged into.  Each routine returns the digest of the new
    # subtree, storing every node it creates as the recursion returns.

    def _merge(self, node: Optional[tuple], items: list, d: int) -> bytes:
        if node is None:
            return self._build(items, d)
        kind = node[0]
        if kind == _LEAF:
            # fold the leaf's own key in; a staged value for it wins
            own = items[0][0][:d] + node[1]
            i = bisect_left(items, (own,))
            if i == len(items) or items[i][0] != own:
                items = items[:i] + [(own, node[2])] + items[i:]
            return self._build(items, d)
        store = self.store
        if kind == _EXTENSION:
            path, child = node[1], node[2]
            first, last = items[0][0], items[-1][0]
            if first.startswith(path, d) and last.startswith(path, d):
                return store.put_path(_EXTENSION, path, self._merge(
                    self._load(child), items, d + len(path)))
            # sorted keys: the first and last bound every item's overlap
            common = min(_lcp(path, first[d:]), _lcp(path, last[d:]))
            slot, rest = path[common], path[common + 1:]
            children = [b""] * 16
            children[slot] = (_EXTENSION, rest, child) if rest else child
            value = self._fill(children, None, items, d + common)
            if children[slot].__class__ is tuple:   # no item reached it
                children[slot] = store.put_path(_EXTENSION, rest, child)
            digest = store.put_branch(children, value)
            if common:
                digest = store.put_path(_EXTENSION, path[:common], digest)
            return digest
        children = list(node[1])
        value = self._fill(children, node[2], items, d)
        return store.put_branch(children, value)

    def _build(self, items: list, d: int) -> bytes:
        """New nodes for ``items`` below an empty slot."""
        store = self.store
        if len(items) == 1:
            key, value = items[0]
            return store.put_path(_LEAF, key[d:], value)
        first = items[0][0]
        common = d + _lcp(first[d:], items[-1][0][d:])
        children = [b""] * 16
        value = self._fill(children, None, items, common)
        digest = store.put_branch(children, value)
        if common > d:
            digest = store.put_path(_EXTENSION, first[d:common], digest)
        return digest

    def _fill(self, children: list, value: Optional[bytes], items: list,
              d: int) -> Optional[bytes]:
        """Merge ``items`` into the branch ``children`` at depth ``d`` in
        place, one run of items per touched slot; return the branch value.

        A slot holds a digest, ``b""``, or a node not yet stored.  A run
        of one key under an empty slot is stored as a leaf on the spot.
        """
        i, n = 0, len(items)
        if len(items[0][0]) == d:   # a key ending here sorts first
            value = items[0][1]
            i = 1
        put_path = self.store.put_path
        while i < n:
            item = items[i]
            key = item[0]
            nib = key[d]
            ref = children[nib]
            if i + 1 == n or items[i + 1][0][d] != nib:   # a run of one
                j = i + 1
                if not ref:
                    children[nib] = put_path(_LEAF, key[d + 1:], item[1])
                    i = j
                    continue
                run = [item]
            else:
                j = bisect_left(items, (key[:d] + _NEXT[nib],), i + 2, n)
                run = items[i:j]
            if not ref:
                children[nib] = self._build(run, d + 1)
            else:
                node = ref if ref.__class__ is tuple else self._load(ref)
                children[nib] = self._merge(node, run, d + 1)
            i = j
        return value

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
                if not nibbles.startswith(path):
                    return proof
                nibbles = nibbles[len(path):]
                digest = node[2]
                continue
            if not nibbles:
                return proof
            child = node[1][nibbles[0]]
            if not child:
                return proof
            nibbles = nibbles[1:]
            digest = child

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
        if kind == _BRANCH and not nibbles:   # the key ends at this branch
            return node[2] == value
        if i + 1 >= len(proof):
            return False
        expected_child = sha256(proof[i + 1])
        if kind == _EXTENSION:
            path = node[1]
            if not nibbles.startswith(path):
                return False
            nibbles = nibbles[len(path):]
            if node[2] != expected_child:
                return False
        else:  # branch
            if node[1][nibbles[0]] != expected_child:
                return False
            nibbles = nibbles[1:]
    return False
