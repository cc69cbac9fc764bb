"""Two-phase commit with a trusted coordinator (the database answer).

Section 3.4.2: cross-shard atomicity in databases uses 2PC driven by a
dedicated, *trusted* coordinator — which may fail and block the
transaction, the weakness BFT 2PC addresses on the blockchain side.

Participants implement ``prepare``/``commit``/``abort`` as simulated
calls returning kernel events; the coordinator sequences the two phases
and reports the decision.  A coordinator crash between phases leaves
participants prepared-and-blocked, which the tests assert explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Protocol

from ..sim.kernel import Countdown, Environment, Event, subscribe

__all__ = ["Vote", "Decision", "Participant", "TwoPhaseCoordinator"]


class Vote(Enum):
    YES = "yes"
    NO = "no"


class Decision(Enum):
    COMMIT = "commit"
    ABORT = "abort"
    BLOCKED = "blocked"   # coordinator died mid-protocol


class Participant(Protocol):
    """A shard taking part in a distributed transaction."""

    def prepare(self, txn_id: int, payload: dict) -> Event:
        """Vote event: fires with Vote.YES/NO once the shard is prepared."""

    def finalize(self, txn_id: int, decision: "Decision") -> Event:
        """Apply the coordinator's decision; fires when durable."""


def decision_from_votes(votes) -> "Decision":
    """Unanimous-consent fold shared by every 2PC coordinator form."""
    return (Decision.COMMIT if all(v is Vote.YES for v in votes)
            else Decision.ABORT)


@dataclass
class TwoPcStats:
    started: int = 0
    committed: int = 0
    aborted: int = 0
    blocked: int = 0
    prepared_blocked_participants: list = field(default_factory=list)


class _TwoPcChain:
    """One 2PC instance as a participant-countdown callback chain.

    Prepare fan-out -> countdown of votes -> (optional inter-phase
    delay) -> crash check -> commit/abort fan-out -> countdown of acks
    -> decision.  No Process per instance and none per participant;
    participant events are joined by :class:`Countdown`, whose
    triggered-guard absorbs late or duplicate branch completions (the
    double-completion race a crash mid-protocol can produce).
    """

    __slots__ = ("coordinator", "txn_id", "participants", "payload", "done",
                 "decision")

    def __init__(self, coordinator: "TwoPhaseCoordinator", txn_id: int,
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
        if coordinator.crashed:
            self._block()
            return
        # Phase 1: prepare fan-out, votes joined by the countdown.
        join = Countdown(coordinator.env, len(self.participants))
        for p in self.participants:
            join.watch(p.prepare(self.txn_id, self.payload))
        subscribe(join, self._voted)

    def _voted(self, ev: Event) -> None:
        if not ev._ok:
            raise ev._value          # a participant died: surface it
        coordinator = self.coordinator
        self.decision = decision_from_votes(ev._value)
        if coordinator.extra_phase_delay:
            timer = coordinator.env.timeout(coordinator.extra_phase_delay)
            timer.callbacks.append(self._delayed)
        else:
            self._decide()

    def _delayed(self, _ev: Event) -> None:
        self._decide()

    def _decide(self) -> None:
        coordinator = self.coordinator
        if coordinator.crashed:
            # Participants voted and hold locks; nobody can decide.
            coordinator.stats.prepared_blocked_participants.extend(
                self.participants)
            self._block()
            return
        # Phase 2: commit/abort fan-out, acks joined by the countdown.
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


class TwoPhaseCoordinator:
    """A trusted (crash-prone) 2PC coordinator."""

    def __init__(self, env: Environment, extra_phase_delay: float = 0.0):
        self.env = env
        self.extra_phase_delay = extra_phase_delay
        self.crashed = False
        self.stats = TwoPcStats()

    def crash(self) -> None:
        """Crash the coordinator; in-flight transactions block."""
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    def run(self, txn_id: int, participants: list[Participant],
            payload: Optional[dict] = None) -> Event:
        """Drive 2PC; the returned event fires with a :class:`Decision`."""
        done = self.env.event()
        _TwoPcChain(self, txn_id, participants, payload or {}, done).start()
        return done
