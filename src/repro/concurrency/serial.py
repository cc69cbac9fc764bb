"""Serial (sequential) transaction execution — the blockchain default.

Section 3.2: most blockchains execute transactions one at a time in ledger
order, trading concurrency for determinism.  ``SerialExecutor.execute``
is the deterministic state-transition function replayed by every replica.
"""

from __future__ import annotations

from ..txn.state import VersionedStore
from ..txn.transaction import Transaction

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Applies transactions in order against a versioned store."""

    def __init__(self, store: VersionedStore):
        self.store = store

    def execute(self, txn: Transaction, version: int) -> bool:
        """Run ``txn`` at ``version``; returns False on a logic abort.

        Reads populate ``txn.read_set``, writes go straight to the store
        stamped with ``version`` — there is no conflict to detect because
        execution is serial.
        """
        store = self.store
        if not txn.derive_writes(store.read_inputs(txn)):
            return False
        store.install(txn, version)
        return True

    def replay(self, txns: list[Transaction], start_version: int) -> int:
        """Replay a committed sequence (what every blockchain node does)."""
        version = start_version
        for txn in txns:
            version += 1
            self.execute(txn, version)
        return version
