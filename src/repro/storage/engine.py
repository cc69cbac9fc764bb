"""Pluggable storage engines: every Table 2 index choice, one interface.

The paper's storage dimension (Section 3.3.2, Table 2) spans six index
kinds — plain LSM / B-tree / skip list on the performance side, and the
authenticated LSM+MPT (Ethereum/Quorum), LSM+Merkle-bucket-tree (Fabric
v0.6) and B-tree+Merkle (FalconDB) on the security side.  This module
lifts that choice out of the individual system models into a swappable
:class:`StorageEngine`, so the Figure 12 authenticated-vs-plain ablation
is a one-line config change (``SystemConfig.extras["index"]`` on the
dedicated models, ``spec["index"]`` on hybrids) on any system that
builds an engine.  This module only builds what it is asked for; which
``extras`` keys a given system accepts is validated in one place,
:class:`repro.systems.base.TransactionalSystem`.

The engine interface mirrors what the systems layer already does:

* ``get``/``put``/``apply_write_set`` over the system-level ``str`` keys
  (encoded to bytes at this boundary);
* a per-block ``commit(version)`` returning a :class:`CommitResult` with
  the fresh authenticated ``root`` (``NULL_HASH`` for plain engines), the
  number of ``hashes_computed`` by the commit, and the structural
  ``node_ops`` performed since the previous commit.

``hashes_computed`` is a *measured* quantity from the real structure —
systems charge it through :meth:`repro.sim.costs.CostModel.index_commit_time`,
replacing the old per-payload index-cost calibration constants.
``node_ops`` is accounting (its charge constant defaults to zero:
structural write work is already folded into the calibrated
``store_put`` / ``commit_serial_cost``).

Engines are pure state + bookkeeping — they schedule no simulation
events, so attaching one to a system changes simulated outcomes only
through the costs the system explicitly charges from the commit deltas.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from ..adt.mbt import MerkleBucketTree
from ..adt.mpt import MerklePatriciaTrie
from ..core.taxonomy import IndexKind
from ..crypto.hashing import NULL_HASH
from .btree import BPlusTree
from .lsm import LSMTree
from .skiplist import SkipList
from .wal import WriteAheadLog

__all__ = ["CommitResult", "RecoveryResult", "StorageEngine", "LsmEngine",
           "BTreeEngine", "SkipListEngine", "MptEngine", "MbtEngine",
           "BTreeMerkleEngine", "engine_for", "engine_from_config",
           "parse_index_kind", "ENGINES"]


class CommitResult(NamedTuple):
    """Outcome of one per-block engine commit."""

    root: bytes           #: authenticated state root (NULL_HASH when plain)
    hashes_computed: int  #: digests computed by this commit (0 when plain)
    node_ops: int         #: structural node writes since the last commit


class RecoveryResult(NamedTuple):
    """Outcome of one crash-restart WAL replay (:meth:`StorageEngine.recover`).

    ``records``/``bytes_replayed`` feed the replay cost the chaos injector
    charges (:meth:`repro.sim.costs.CostModel.wal_replay_time`); ``root``
    and ``hashes_computed`` are the rebuild's commit deltas.
    """

    records: int          #: WAL records replayed into the fresh structure
    bytes_replayed: int   #: encoded bytes scanned (the surviving log)
    root: bytes           #: state root after the rebuild commit
    hashes_computed: int  #: digests the rebuild commit computed


#: WAL checkpoint threshold: log bytes kept before the group-committed log
#: is truncated (models the post-flush truncation an LSM WAL gets for free).
_WAL_CHECKPOINT_BYTES = 1 << 20


class StorageEngine:
    """One state organization behind the versioned store.

    Subclasses wrap a concrete structure from :mod:`repro.storage` /
    :mod:`repro.adt` and report measured commit deltas.  An optional
    group-committed :class:`WriteAheadLog` (``SystemConfig.extras["wal"]``)
    journals every write set the structure accepts and checkpoints at
    commit.
    """

    kind: IndexKind
    authenticated = False

    def __init__(self, wal: Optional[WriteAheadLog] = None):
        self.wal = wal
        self._wal_seq = 0
        self.puts = 0
        self._node_ops = 0
        self.commits = 0
        # Checkpoint threshold for WAL truncation after a group commit.
        # ``None`` disables truncation entirely — the chaos injector sets
        # that before load so the full history survives for crash replay.
        self.wal_checkpoint_bytes: Optional[int] = _WAL_CHECKPOINT_BYTES
        self.recoveries = 0
        self._fresh_structure()

    # -- write path ----------------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        self._write(((key.encode(), value),))

    def apply_write_set(self, write_set: dict[str, bytes]) -> None:
        self._write(list(zip(map(str.encode, write_set),
                             write_set.values())))

    def _write(self, items: list[tuple[bytes, bytes]]) -> None:
        """Apply the encoded write set, then count it and journal it in
        one append.  A set the structure rejects raises before it is
        counted or journaled, so recovery never replays it; nothing runs
        between the two steps, so the log still holds every applied write
        before anything can crash."""
        self._put_many(items)
        self.puts += len(items)
        if self.wal is not None:
            self.wal.append_batch(self._wal_seq + 1, items)
            self._wal_seq += len(items)

    # -- read path -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        return self._get(key.encode())

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # -- per-block commit ------------------------------------------------------

    def commit(self, version: int = 0) -> CommitResult:
        """Fold pending writes; report the measured structural deltas."""
        root, hashes = self._commit()
        node_ops = self._node_ops
        self._node_ops = 0
        self.commits += 1
        if self.wal is not None:
            # Group commit: one sync covers the whole block's records.
            self.wal.sync()
            if (self.wal_checkpoint_bytes is not None
                    and self.wal.size_bytes() > self.wal_checkpoint_bytes):
                self.wal.truncate()
        return CommitResult(root, hashes, node_ops)

    # -- crash-restart recovery -------------------------------------------------

    def crash(self) -> None:
        """Crash the engine: the unsynced WAL tail is lost (possibly torn).

        The in-memory structure is *not* touched here — it is dead weight
        the moment the node is down; :meth:`recover` rebuilds it from the
        durable log, which is the only state a restart can trust.
        """
        if self.wal is None:
            raise RuntimeError(
                "crash-restart recovery needs a WAL "
                "(SystemConfig.extras['wal'] = True)")
        self.wal.crash()

    def recover(self) -> RecoveryResult:
        """Rebuild the structure by replaying the surviving WAL.

        The real recovery loop: a fresh structure (:meth:`_fresh_structure`)
        is populated with the replayed records, in log order, through the
        engine's own ``_put_many`` hook — *not* :meth:`apply_write_set`,
        which would re-journal every replayed write — then committed
        once.  Replay stops at the first torn or corrupt record exactly
        as :meth:`WriteAheadLog.replay` does, so post-recovery state
        equals the pre-crash *synced* state.
        """
        if self.wal is None:
            raise RuntimeError(
                "crash-restart recovery needs a WAL "
                "(SystemConfig.extras['wal'] = True)")
        self._fresh_structure()
        self._node_ops = 0
        records = list(self.wal.replay())
        self._put_many([(record.key, record.value) for record in records])
        root, hashes = self._commit()
        self._node_ops = 0
        if records:
            self._wal_seq = max(self._wal_seq, records[-1].seq)
        self.recoveries += 1
        return RecoveryResult(len(records), self.wal.size_bytes(), root,
                              hashes)

    # -- engine-specific hooks --------------------------------------------------
    # The defaults drive ``tree``: one node op per write, and a commit that
    # reports the measured hash delta when the engine is authenticated.

    def _put_many(self, items: list[tuple[bytes, bytes]]) -> None:
        """Apply an encoded write set in order (every write lands here)."""
        put = self.tree.put
        for key, value in items:
            put(key, value)
        self._node_ops += len(items)

    def _get(self, key: bytes) -> Optional[bytes]:
        return self.tree.get(key)

    def _commit(self) -> tuple[bytes, int]:
        """Fold writes; return (root, hashes computed by this commit)."""
        if not self.authenticated:
            return NULL_HASH, 0
        before = self.tree.hashes_computed
        root = self.tree.commit()
        return root, self.tree.hashes_computed - before

    def _fresh_structure(self) -> None:
        """Install an empty backing structure as ``tree`` (construction
        and crash recovery share this)."""
        raise NotImplementedError


# -- plain (performance-oriented) engines ------------------------------------------


class LsmEngine(StorageEngine):
    """Plain LSM tree (LevelDB/RocksDB/TiKV; Table 2 "LSM")."""

    kind = IndexKind.LSM

    def _put_many(self, items: list[tuple[bytes, bytes]]) -> None:
        # one memtable insert per write, plus the SSTable writes of each
        # flush (and the compaction it may cascade into)
        self._node_ops += len(items) + self.tree.write_batch(items)

    def _fresh_structure(self) -> None:
        self.tree = LSMTree(memtable_limit=4096)


class BTreeEngine(StorageEngine):
    """Plain B+ tree (BoltDB/MySQL; Table 2 "B-tree")."""

    kind = IndexKind.BTREE

    def _put_many(self, items: list[tuple[bytes, bytes]]) -> None:
        tree = self.tree
        for key, value in items:
            tree.put(key, value)
            self._node_ops += tree.depth()   # root-to-leaf page writes

    def _fresh_structure(self) -> None:
        self.tree = BPlusTree(order=64)


class SkipListEngine(StorageEngine):
    """Plain skip list (Redis sorted values backing Veritas)."""

    kind = IndexKind.SKIP_LIST

    def _fresh_structure(self) -> None:
        self.tree = SkipList()


# -- authenticated (security-oriented) engines ---------------------------------------


class MptEngine(StorageEngine):
    """LSM + Merkle Patricia Trie (Ethereum/Quorum; Table 2 "LSM+MPT").

    The content-addressed :class:`~repro.adt.mpt.NodeStore` stands in for
    the LSM the trie nodes live in (geth stores them in LevelDB the same
    content-addressed way).  Writes stage against the trie's in-memory
    overlay; ``commit`` folds them geth-style, hashing each touched node
    once, and the *measured* hash delta is what systems charge.
    """

    kind = IndexKind.LSM_MPT
    authenticated = True

    def _put_many(self, items: list[tuple[bytes, bytes]]) -> None:
        self.tree.stage_many(items)
        self._node_ops += len(items)

    def _fresh_structure(self) -> None:
        self.tree = MerklePatriciaTrie()


class MbtEngine(StorageEngine):
    """LSM + Merkle Bucket Tree (Fabric v0.6; Table 2 "LSM+MBT")."""

    kind = IndexKind.LSM_MBT
    authenticated = True

    def _fresh_structure(self) -> None:
        self.tree = MerkleBucketTree()


class BTreeMerkleEngine(StorageEngine):
    """B-tree + Merkle overlay (FalconDB/IntegriDB; Table 2 "B-tree+Merkle")."""

    kind = IndexKind.BTREE_MERKLE
    authenticated = True

    def _fresh_structure(self) -> None:
        # Imported here: adt.btm builds on .btree, so a module-level import
        # would close an import cycle through this package's __init__.
        from ..adt.btm import MerkleBTree
        self.tree = MerkleBTree(order=64)


#: IndexKind -> engine class, one per Table 2 storage choice.
ENGINES: dict[IndexKind, type[StorageEngine]] = {
    IndexKind.LSM: LsmEngine,
    IndexKind.BTREE: BTreeEngine,
    IndexKind.SKIP_LIST: SkipListEngine,
    IndexKind.LSM_MPT: MptEngine,
    IndexKind.LSM_MBT: MbtEngine,
    IndexKind.BTREE_MERKLE: BTreeMerkleEngine,
}

#: Config-friendly aliases accepted wherever an index kind is named.
_ALIASES = {
    "lsm": IndexKind.LSM,
    "btree": IndexKind.BTREE,
    "b-tree": IndexKind.BTREE,
    "skiplist": IndexKind.SKIP_LIST,
    "skip-list": IndexKind.SKIP_LIST,
    "lsm+mpt": IndexKind.LSM_MPT,
    "mpt": IndexKind.LSM_MPT,
    "lsm+mbt": IndexKind.LSM_MBT,
    "mbt": IndexKind.LSM_MBT,
    "btree+merkle": IndexKind.BTREE_MERKLE,
    "b-tree+merkle": IndexKind.BTREE_MERKLE,
}


def parse_index_kind(kind: Union[IndexKind, str]) -> IndexKind:
    """Resolve an :class:`IndexKind` or config string (e.g. ``"lsm+mpt"``)."""
    if isinstance(kind, IndexKind):
        return kind
    key = kind.lower().replace(" ", "")
    if key in _ALIASES:
        return _ALIASES[key]
    for member in IndexKind:
        if member.value.replace(" ", "") == key:
            return member
    raise ValueError(f"unknown index kind {kind!r}; "
                     f"known: {sorted(_ALIASES)}")


def engine_for(kind: Union[IndexKind, str],
               wal: bool = False) -> StorageEngine:
    """Instantiate the engine for a Table 2 index choice.

    ``wal=True`` attaches a group-committed write-ahead log journaling
    every engine write (checkpointed at commit) — the
    ``SystemConfig.extras["wal"]`` flag's storage side.
    """
    cls = ENGINES[parse_index_kind(kind)]
    return cls(wal=WriteAheadLog() if wal else None)


def engine_from_config(extras: dict,
                       default: Union[IndexKind, str, None] = None
                       ) -> Optional[StorageEngine]:
    """Build the engine a ``SystemConfig.extras`` mapping names.

    ``extras["index"]`` wins; otherwise ``default`` is the system's
    historical structure (``None`` = no engine, the seed behaviour).
    ``extras["wal"]`` attaches the group-committed journal either way.
    A pure factory: which keys and values a system accepts is decided
    by :class:`repro.systems.base.TransactionalSystem`.
    """
    index = extras.get("index", default)
    if index is None:
        return None
    return engine_for(index, wal=bool(extras.get("wal")))
