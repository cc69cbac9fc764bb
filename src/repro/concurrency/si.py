"""Snapshot-isolation scheduler shared by the weakened-isolation paths.

``extras["isolation"]`` turns isolation into a config axis (the paper
fixes one concurrency-control scheme per system; the real design space
trades anomalies for throughput).  This module supplies the shared
machinery: a stage/validate/apply executor over the existing
:class:`~repro.txn.state.VersionedStore` plus the level validator every
system calls at construction.

:class:`SnapshotScheduler` implements snapshot isolation as the
systems' weak paths use it:

* **stage** — read every input key from the *current committed state*
  (one simulated instant: the snapshot), run the transaction's logic,
  and buffer the derived write set.  Pure bookkeeping; the caller
  charges the read/execute costs through its own cost model.  tikv
  reads through its replicated read path instead and runs
  :meth:`~repro.txn.transaction.Transaction.derive_writes` itself.
* **reserve/release** — optional write intents for client-driven paths
  (tikv): first-updater-wins over the window between staging and the
  replicated write-back.
* **apply** — validate first-committer-wins (every written key must
  still hold the version the snapshot read; otherwise abort with
  ``WRITE_WRITE_CONFLICT``) and install the write set atomically at
  the next version.  Serial callers (raft apply loops, block
  producers) make the validate+install atomic by construction.

:class:`~repro.concurrency.rc.ReadCommittedScheduler` subclasses this
with first-committer-wins off: blind last-writer-wins applies, which is
exactly the lost-update hazard the anomaly detector then observes.
"""

from __future__ import annotations

from typing import Optional

from ..txn.state import VersionedStore
from ..txn.transaction import AbortReason, Transaction

__all__ = ["LEVELS", "SnapshotScheduler", "isolation_level"]

#: The isolation spectrum ``extras["isolation"]`` accepts.
LEVELS = ("serializable", "snapshot", "read_committed")


def isolation_level(extras: Optional[dict]) -> str:
    """Resolve and validate ``extras["isolation"]`` (default serializable)."""
    level = (extras or {}).get("isolation", "serializable")
    if level not in LEVELS:
        raise ValueError(
            f"unknown isolation level {level!r}; expected one of {LEVELS}")
    return level


class SnapshotScheduler:
    """Stage/validate/apply executor for snapshot isolation."""

    level = "snapshot"
    first_committer_wins = True

    def __init__(self, store: VersionedStore):
        self.store = store
        self.conflicts = 0
        # Live write intents (key -> txn_id) for client-driven paths.
        self._intents: dict[str, int] = {}

    # -- staging -------------------------------------------------------------

    def stage(self, txn: Transaction) -> bool:
        """Snapshot-read the inputs, run logic, buffer the write set.

        Returns False (and marks the txn LOGIC-aborted) on a constraint
        violation; the caller then skips consensus/apply entirely.
        """
        return txn.derive_writes(self.store.read_inputs(txn))

    # -- write intents (client-driven paths) ---------------------------------

    def reserve(self, txn: Transaction) -> bool:
        """First-updater-wins: claim intents on the staged write set.

        Covers the window between staging and the replicated write-back
        on paths where apply is per-key rather than one atomic install.
        Conflicting reservation or a superseded snapshot read aborts.
        """
        if self.first_committer_wins:
            for key in txn.write_set:
                owner = self._intents.get(key)
                if owner is not None and owner != txn.txn_id:
                    txn.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
                    self.conflicts += 1
                    return False
                seen = txn.read_set.get(key)
                if seen is not None and self.store.version(key) != seen:
                    txn.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
                    self.conflicts += 1
                    return False
        for key in txn.write_set:
            self._intents[key] = txn.txn_id
        return True

    def release(self, txn: Transaction) -> None:
        for key in txn.write_set:
            if self._intents.get(key) == txn.txn_id:
                del self._intents[key]

    # -- validated apply ------------------------------------------------------

    def apply(self, txn: Transaction, version: int) -> bool:
        """First-committer-wins validate, then install atomically.

        The caller must be serial with respect to other applies (raft
        apply loop, block producer) so the check+install pair is atomic.
        """
        if self.first_committer_wins:
            for key in txn.write_set:
                seen = txn.read_set.get(key)
                if seen is not None and self.store.version(key) != seen:
                    txn.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
                    self.conflicts += 1
                    return False
        self.store.install(txn, version)
        return True
