"""Versioned key-value state shared by the concurrency-control modules.

Each key carries a monotonically increasing version (the block/commit
sequence that last wrote it) — exactly what Fabric's MVCC validation and
TiDB's snapshot reads compare against.

Since the storage-engine refactor, ``VersionedStore`` is a *versioned
facade* over an optional :class:`repro.storage.engine.StorageEngine`: the
store keeps the (value, version) map the concurrency layers read (no
engine charges any simulated cost on that path), and mirrors every write
into the engine — the real index structure of the system's Table 2
storage choice.  ``commit(version)`` folds the engine's pending writes
once per block and returns the measured
:class:`~repro.storage.engine.CommitResult` the system charges through
the cost model.  With no engine attached the store behaves exactly as
before (plain dicts; the seed systems' default).
"""

from __future__ import annotations

from typing import Iterator, Optional, TYPE_CHECKING

from .transaction import OpType, Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..storage.engine import CommitResult, StorageEngine

__all__ = ["VersionedStore"]


class VersionedStore:
    """In-memory map of key -> (value, version), optionally engine-backed."""

    def __init__(self, engine: Optional["StorageEngine"] = None):
        self._data: dict[str, tuple[bytes, int]] = {}
        self.engine = engine
        self.writes = 0
        self.reads = 0

    def get(self, key: str) -> tuple[Optional[bytes], int]:
        """Return (value, version); (None, 0) when the key is absent."""
        self.reads += 1
        entry = self._data.get(key)
        if entry is None:
            return None, 0
        return entry

    def version(self, key: str) -> int:
        entry = self._data.get(key)
        return entry[1] if entry is not None else 0

    def put(self, key: str, value: bytes, version: int) -> None:
        self.writes += 1
        self._data[key] = (value, version)
        if self.engine is not None:
            self.engine.put(key, value)

    def apply_write_set(self, write_set: dict[str, bytes], version: int) -> None:
        data = self._data
        for key, value in write_set.items():
            data[key] = (value, version)
        self.writes += len(write_set)
        if self.engine is not None:
            self.engine.apply_write_set(write_set)

    def read_inputs(self, txn: Transaction) -> dict[str, bytes]:
        """Read every READ/UPDATE key of ``txn`` from the current state.

        Stamps each read version into ``txn.read_set`` and returns
        key -> value (``b""`` for an absent key): the input
        :meth:`Transaction.derive_writes` runs the logic against.
        """
        reads: dict[str, bytes] = {}
        read_set = txn.read_set
        for op in txn.ops:
            if op.op_type is not OpType.WRITE:
                value, version = self.get(op.key)
                read_set[op.key] = version
                reads[op.key] = value if value is not None else b""
        return reads

    def install(self, txn: Transaction, version: int) -> None:
        """Apply ``txn``'s write set at ``version`` and mark it committed."""
        self.apply_write_set(txn.write_set, version)
        txn.commit_version = version
        txn.mark_committed()

    def load(self, records: dict[str, bytes], first_version: int) -> int:
        """Pre-populate with one version per record: the i-th record (in
        dict order) gets ``first_version + i``, as if each were its own
        commit.  The engine gets the whole dict as one write set.
        Returns the last version written."""
        last = first_version + len(records) - 1
        self._data.update(zip(records, zip(records.values(),
                                           range(first_version, last + 1))))
        self.writes += len(records)
        if self.engine is not None:
            self.engine.apply_write_set(records)
        return last

    def commit(self, version: int = 0) -> Optional["CommitResult"]:
        """Fold the engine's pending writes (one batch per block).

        Returns the engine's measured :class:`CommitResult`, or ``None``
        when no engine is attached.  Pure bookkeeping — schedules no
        simulation events; the *caller* charges the deltas.
        """
        if self.engine is None:
            return None
        return self.engine.commit(version)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data)

    def snapshot(self) -> dict[str, tuple[bytes, int]]:
        """Copy of the full state (tests / fork comparisons)."""
        return dict(self._data)

    def data_bytes(self) -> int:
        """Total bytes of current values (Fig. 12 state-storage accounting)."""
        return sum(len(value) for value, _version in self._data.values())
