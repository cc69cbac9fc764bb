"""Strict two-phase locking with FIFO shared/exclusive lock queues.

The pessimistic concurrency control used by Spanner in the paper's
Figure 14: conflicting transactions *contend for locks* (queueing) rather
than aborting instantly — which is why Spanner falls behind TiDB's
abort-fast approach under a skewed workload.

Lock waits are simulated: ``acquire`` returns a kernel event that fires
when the lock is granted, so hold times translate into real queueing in
the DES.  Each key keeps one FIFO queue: a request waits whenever the
key already has waiters or a conflicting holder, and ``release`` grants
from the head in arrival order.  No request is ever refused, so the
manager itself has no deadlock handling; callers stay deadlock-free by
taking their locks in one global key order (the Spanner model sorts
each transaction's keys), which rules out wait-for cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque

from ..sim.kernel import Environment, Event

__all__ = ["LockMode", "LockManager"]


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class _LockRequest:
    txn_id: int
    mode: LockMode
    event: Event


@dataclass
class _LockState:
    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: Deque[_LockRequest] = field(default_factory=deque)


class LockManager:
    """Per-key S/X locks granted in FIFO arrival order."""

    def __init__(self, env: Environment):
        self.env = env
        self._locks: dict[str, _LockState] = {}
        self.grants = 0
        self.wait_events = 0

    def _conflicts(self, state: _LockState, txn_id: int,
                   mode: LockMode) -> bool:
        for holder, held_mode in state.holders.items():
            if holder == txn_id:
                continue
            if mode is LockMode.EXCLUSIVE or held_mode is LockMode.EXCLUSIVE:
                return True
        return False

    def acquire(self, txn_id: int, key: str, mode: LockMode) -> Event:
        """Request a lock; the returned event fires on grant."""
        state = self._locks.setdefault(key, _LockState())
        ev = self.env.event()
        held = state.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                self.grants += 1
                ev.succeed((key, mode))
                return ev
            if len(state.holders) == 1:
                state.holders[txn_id] = LockMode.EXCLUSIVE  # sole-sharer upgrade
                self.grants += 1
                ev.succeed((key, mode))
                return ev
        if not state.waiters and not self._conflicts(state, txn_id, mode):
            state.holders[txn_id] = mode
            self.grants += 1
            ev.succeed((key, mode))
            return ev
        self.wait_events += 1
        state.waiters.append(_LockRequest(txn_id, mode, ev))
        return ev

    def release(self, txn_id: int, key: str) -> None:
        state = self._locks.get(key)
        if state is None:
            return
        state.holders.pop(txn_id, None)
        self._grant_waiters(state)
        if not state.holders and not state.waiters:
            del self._locks[key]

    def _grant_waiters(self, state: _LockState) -> None:
        waiters = state.waiters
        while waiters:
            req = waiters[0]
            if self._conflicts(state, req.txn_id, req.mode):
                break
            waiters.popleft()
            state.holders[req.txn_id] = req.mode
            self.grants += 1
            req.event.succeed((None, req.mode))
