"""Serial (sequential) transaction execution — the blockchain default.

Section 3.2: most blockchains execute transactions one at a time in ledger
order, trading concurrency for determinism.  ``SerialExecutor.execute``
is the deterministic state-transition function replayed by every replica.
"""

from __future__ import annotations

from ..txn.state import VersionedStore
from ..txn.transaction import AbortReason, OpType, Transaction

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Applies transactions in order against a versioned store."""

    def __init__(self, store: VersionedStore):
        self.store = store
        self.executed = 0
        self.logic_aborts = 0

    def execute(self, txn: Transaction, version: int) -> bool:
        """Run ``txn`` at ``version``; returns False on a logic abort.

        Reads populate ``txn.read_set``, writes go straight to the store
        stamped with ``version`` — there is no conflict to detect because
        execution is serial.
        """
        reads: dict[str, bytes] = {}
        for op in txn.ops:
            if op.op_type in (OpType.READ, OpType.UPDATE):
                value, ver = self.store.get(op.key)
                txn.read_set[op.key] = ver
                reads[op.key] = value if value is not None else b""
        if txn.logic is not None:
            derived = txn.logic(reads)
            if derived is None:
                txn.mark_aborted(AbortReason.LOGIC)
                self.logic_aborts += 1
                return False
            txn.write_set.update(derived)
        for op in txn.ops:
            if op.is_write:
                txn.write_set.setdefault(op.key, op.value)
        self.store.apply_write_set(txn.write_set, version)
        txn.commit_version = version
        txn.mark_committed()
        self.executed += 1
        return True

    def replay(self, txns: list[Transaction], start_version: int) -> int:
        """Replay a committed sequence (what every blockchain node does)."""
        version = start_version
        for txn in txns:
            version += 1
            self.execute(txn, version)
        return version
