"""BFT-replicated 2PC coordinator (AHL / Eth2 beacon-chain pattern).

Section 3.4.2, blockchain side: the coordinator cannot be trusted under
the Byzantine model, so it is implemented as a state machine replicated
inside a shard running a BFT protocol.  Consensus liveness keeps the
coordinator available (no blocking), at the cost of one BFT consensus
round per 2PC phase — the "considerable overhead" the paper measures in
Figure 14.
"""

from __future__ import annotations

from typing import Optional

from ..consensus.pbft import PbftGroup
from ..sim.kernel import Countdown, Environment, Event, subscribe
from .twopc import (Decision, Participant, TwoPcStats, Vote,
                    decision_from_votes)

__all__ = ["BftCoordinator"]


class _Bft2PcChain:
    """One BFT-2PC instance as a participant-countdown callback chain.

    BEGIN consensus round -> prepare fan-out -> countdown of votes ->
    DECIDE consensus round (after which the decision can never be lost)
    -> finalize fan-out -> countdown of acks -> decision.  A failed
    consensus round resolves to ``Decision.BLOCKED``.  ``start`` takes
    one scheduled slot and ``done`` is succeeded through the scheduler
    from the ack countdown's callback.
    """

    __slots__ = ("coordinator", "txn_id", "participants", "payload", "done",
                 "decision")

    def __init__(self, coordinator: "BftCoordinator", txn_id: int,
                 participants: list[Participant], payload: dict, done: Event):
        self.coordinator = coordinator
        self.txn_id = txn_id
        self.participants = participants
        self.payload = payload
        self.done = done
        self.decision: Optional[Decision] = None

    def start(self) -> None:
        self.coordinator.env._schedule_call(self._begin, None)

    def _block(self) -> None:
        self.coordinator.stats.blocked += 1
        if not self.done._triggered:   # double-completion guard
            self.done.succeed(Decision.BLOCKED)

    def _begin(self, _arg) -> None:
        coordinator = self.coordinator
        coordinator.stats.started += 1
        # Step 1: replicate the BEGIN record so any replica can take over.
        subscribe(
            coordinator._replicate({"txn": self.txn_id, "phase": "begin"}),
            self._began)

    def _began(self, ev: Event) -> None:
        if not ev._ok:
            self._block()
            return
        # Phase 1: prepare votes from the participant shards.
        coordinator = self.coordinator
        join = Countdown(coordinator.env, len(self.participants))
        for p in self.participants:
            join.watch(p.prepare(self.txn_id, self.payload))
        subscribe(join, self._voted)

    def _voted(self, ev: Event) -> None:
        if not ev._ok:
            raise ev._value          # a participant died: surface it
        self.decision = decision_from_votes(ev._value)
        # Step 2: the decision itself is a consensus decision — after this
        # point it can never be lost, so participants never block.
        subscribe(
            self.coordinator._replicate({"txn": self.txn_id,
                                         "phase": "decide",
                                         "decision": self.decision.value}),
            self._decided)

    def _decided(self, ev: Event) -> None:
        if not ev._ok:
            self._block()
            return
        coordinator = self.coordinator
        join = Countdown(coordinator.env, len(self.participants))
        for p in self.participants:
            join.watch(p.finalize(self.txn_id, self.decision))
        subscribe(join, self._acked)

    def _acked(self, ev: Event) -> None:
        if not ev._ok:
            raise ev._value
        coordinator = self.coordinator
        if self.decision is Decision.COMMIT:
            coordinator.stats.committed += 1
        else:
            coordinator.stats.aborted += 1
        if not self.done._triggered:
            self.done.succeed(self.decision)


class BftCoordinator:
    """2PC where every coordinator step is a BFT consensus decision."""

    def __init__(self, env: Environment, pbft: PbftGroup):
        self.env = env
        self.pbft = pbft
        self.stats = TwoPcStats()
        self.consensus_rounds = 0

    def _replicate(self, record: dict) -> Event:
        """Persist a coordinator-state transition via BFT consensus."""
        self.consensus_rounds += 1
        return self.pbft.propose(record, size=256)

    def run(self, txn_id: int, participants: list[Participant],
            payload: Optional[dict] = None) -> Event:
        done = self.env.event()
        _Bft2PcChain(self, txn_id, participants, payload or {}, done).start()
        return done
