"""Optimistic concurrency control, Fabric-style (execute-order-validate).

Transactions are *simulated* in parallel against the committed state,
recording a read set (key -> version) and a write set.  After ordering,
the commit phase validates serially: a transaction whose read versions are
stale aborts with a read-write conflict (Section 3.2, Figures 9-10).

The module also implements the endorsement-consistency check: when several
peers simulate the same proposal against diverging states, the client
aborts on mismatching read sets (Fig. 10b's "inconsistent read" category).
"""

from __future__ import annotations

from ..txn.state import VersionedStore
from ..txn.transaction import AbortReason, Transaction

__all__ = ["OccSimulator", "OccValidator", "endorsements_consistent"]


class OccSimulator:
    """Executes a transaction speculatively, producing its rw-set."""

    def __init__(self, store: VersionedStore):
        self.store = store

    def simulate(self, txn: Transaction) -> dict[str, int]:
        """Fill ``txn.read_set``/``write_set`` from the current state.

        Returns the read set (used for endorsement comparison); a logic
        abort marks ``txn`` aborted.  The store itself is not modified.
        """
        txn.derive_writes(self.store.read_inputs(txn))
        return txn.read_set


def endorsements_consistent(read_sets: list[dict[str, int]]) -> bool:
    """True iff all endorsing peers returned identical read sets.

    Peers commit blocks at different rates, so their states may diverge
    transiently; a client that collects mismatching simulation results
    must abort (paper Section 5.3.2: 14% of Fabric aborts at 10 ops/txn).
    """
    if not read_sets:
        return True
    first = read_sets[0]
    return all(rs == first for rs in read_sets[1:])


class OccValidator:
    """Serial commit-phase validation (Fabric's VSCC + MVCC check)."""

    def __init__(self, store: VersionedStore):
        self.store = store
        self.committed = 0
        self.aborted = 0

    def validate_and_commit(self, txn: Transaction, version: int) -> bool:
        """Commit ``txn`` if its read versions are still current."""
        if txn.abort_reason is AbortReason.LOGIC:
            self.aborted += 1
            return False
        for key, seen_version in txn.read_set.items():
            if self.store.version(key) != seen_version:
                txn.mark_aborted(AbortReason.READ_WRITE_CONFLICT)
                self.aborted += 1
                return False
        self.store.install(txn, version)
        self.committed += 1
        return True
