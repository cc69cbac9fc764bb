"""Transactions: the unit of work in every simulated system.

A transaction is a list of read/write operations over string keys with
byte-string values, plus (once executed) a read set with versions and a
write set — the Fabric-style "rw-set" that optimistic validation checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

__all__ = ["Op", "OpType", "Transaction", "TxnStatus", "AbortReason"]

_txn_counter = itertools.count(1)


class OpType(Enum):
    READ = "read"
    WRITE = "write"
    # read-modify-write: read the key, then write a new value derived from it
    UPDATE = "update"


class TxnStatus(Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"


class AbortReason(Enum):
    """Why a transaction aborted — matches the paper's Fig. 9/10 categories."""

    READ_WRITE_CONFLICT = "read-write conflict"     # Fabric MVCC check
    INCONSISTENT_READ = "inconsistent read"          # Fabric endorsement mismatch
    WRITE_WRITE_CONFLICT = "write-write conflict"    # TiDB percolator prewrite
    LOGIC = "application logic"                      # e.g. Smallbank constraint
    COORDINATOR_ABORT = "coordinator abort"          # 2PC vote-abort
    NO_LEADER = "no leader"                          # Raft write refused


@dataclass
class Op:
    """One storage operation inside a transaction."""

    op_type: OpType
    key: str
    value: bytes = b""

    def __post_init__(self):
        # Plain attribute, not a property: op_type is fixed at creation
        # and this predicate runs in every system's hot path.
        self.is_write = self.op_type in (OpType.WRITE, OpType.UPDATE)


@dataclass
class Transaction:
    """A client transaction flowing through a simulated system."""

    ops: list[Op]
    client: str = "client-0"
    txn_id: int = field(default_factory=lambda: next(_txn_counter))
    submitted_at: float = 0.0
    status: TxnStatus = TxnStatus.PENDING
    abort_reason: Optional[AbortReason] = None
    commit_version: int = 0   # version/timestamp stamped at commit
    # Populated at execution time (Fabric-style rw-set):
    read_set: dict[str, int] = field(default_factory=dict)   # key -> version
    write_set: dict[str, bytes] = field(default_factory=dict)
    # Per-key installed versions, for systems that apply each write at its
    # own version stamp (e.g. tikv's per-raft-apply stamps under weakened
    # isolation).  ``None`` (the common case — one commit stamp for the
    # whole write set) costs no allocation; the MVSG checker prefers these
    # over ``commit_version`` when present.
    write_versions: Optional[dict[str, int]] = None
    # Optional application logic run at execution time against read values
    # (see ``derive_writes``); returning None signals a constraint
    # violation (logic abort).
    logic: Optional[Callable[[dict[str, bytes]], Optional[dict[str, bytes]]]] = None
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def keys(self) -> list[str]:
        return [op.key for op in self.ops]

    @property
    def read_keys(self) -> list[str]:
        return [op.key for op in self.ops
                if op.op_type in (OpType.READ, OpType.UPDATE)]

    @property
    def write_keys(self) -> list[str]:
        return [op.key for op in self.ops if op.is_write]

    @property
    def is_read_only(self) -> bool:
        return all(op.op_type == OpType.READ for op in self.ops)

    @property
    def payload_size(self) -> int:
        """Total bytes of written values (drives message/ledger sizes).

        Cached on first access: ``ops`` is fixed at creation, and every
        system model re-reads this several times per hop.
        """
        size = self._payload_size
        if size is None:
            size = self._payload_size = sum(
                len(op.value) for op in self.ops if op.is_write)
        return size

    _payload_size: Optional[int] = field(
        default=None, repr=False, compare=False)

    def derive_writes(self, reads: dict[str, bytes]) -> bool:
        """Run the logic against ``reads`` and fill ``write_set``.

        The one execution step every system shares: derived values win,
        every other written op writes its own value.  A ``None`` from the
        logic is a constraint violation: the transaction is marked
        LOGIC-aborted and False returned, with ``write_set`` untouched.
        """
        write_set = self.write_set
        if self.logic is not None:
            derived = self.logic(reads)
            if derived is None:
                self.mark_aborted(AbortReason.LOGIC)
                return False
            write_set.update(derived)
        for op in self.ops:
            if op.is_write:
                write_set.setdefault(op.key, op.value)
        return True

    def mark_committed(self) -> None:
        self.status = TxnStatus.COMMITTED

    def mark_aborted(self, reason: AbortReason) -> None:
        self.status = TxnStatus.ABORTED
        self.abort_reason = reason

    @classmethod
    def write(cls, key: str, value: bytes, client: str = "client-0") -> "Transaction":
        """Convenience: a single blind write."""
        return cls(ops=[Op(OpType.WRITE, key, value)], client=client)

    @classmethod
    def read(cls, key: str, client: str = "client-0") -> "Transaction":
        """Convenience: a single read."""
        return cls(ops=[Op(OpType.READ, key)], client=client)

    @classmethod
    def update(cls, key: str, value: bytes, client: str = "client-0") -> "Transaction":
        """Convenience: a single read-modify-write."""
        return cls(ops=[Op(OpType.UPDATE, key, value)], client=client)
