"""Two-phase commit: one protocol, two ways to make a coordinator step durable.

Section 3.4.2: cross-shard atomicity uses 2PC on both sides of the
dichotomy, and the sides differ in one choice inside it.  A database
trusts a dedicated coordinator, which may crash between the phases and
leave its prepared participants blocked.  A blockchain cannot trust it
under the Byzantine model, so (the AHL / Eth2 beacon-chain pattern) the
coordinator is a state machine replicated by a BFT committee: every
coordinator step is one consensus round — the "considerable overhead"
Figure 14 measures — and consensus liveness keeps it available.

Both coordinators run the one chain :class:`_TwoPcChain`; they differ
only in ``_record``, the event that makes a step durable.  Participants
implement ``prepare``/``finalize`` as simulated calls returning kernel
events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Protocol

from ..consensus.pbft import PbftGroup
from ..sim.kernel import Environment, Event, subscribe

__all__ = ["Vote", "Decision", "Participant", "TwoPhaseCoordinator",
           "BftCoordinator"]


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


@dataclass
class TwoPcStats:
    started: int = 0
    committed: int = 0
    aborted: int = 0
    blocked: int = 0
    prepared_blocked_participants: list = field(default_factory=list)


class _TwoPcChain:
    """One 2PC instance as a callback chain, for either coordinator.

    Record BEGIN -> prepare fan-in of votes -> fold the votes -> record
    the decision -> finalize fan-in of acks -> ``done``.  A record that
    fails, or a coordinator that has crashed by the time it lands,
    resolves the instance to ``Decision.BLOCKED``; after the decision
    step the prepared participants are listed as blocked too.  No
    Process per instance and none per participant: participant events
    are joined by ``env.all_of``, whose settled-guard absorbs late or
    duplicate completions (the double-completion race a crash
    mid-protocol can produce).
    """

    __slots__ = ("coordinator", "txn_id", "participants", "payload", "done",
                 "decision")

    def __init__(self, coordinator: "_Coordinator", txn_id: int,
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
        subscribe(coordinator._record({"txn": self.txn_id, "phase": "begin"}),
                  self._began)

    def _began(self, ev: Event) -> None:
        coordinator = self.coordinator
        if not ev._ok or coordinator.crashed:
            self._block()
            return
        join = coordinator.env.all_of(
            [p.prepare(self.txn_id, self.payload) for p in self.participants])
        subscribe(join, self._voted)

    def _voted(self, ev: Event) -> None:
        if not ev._ok:
            raise ev._value          # a participant died: surface it
        self.decision = (Decision.COMMIT
                         if all(v is Vote.YES for v in ev._value)
                         else Decision.ABORT)
        subscribe(self.coordinator._record({"txn": self.txn_id,
                                            "phase": "decide",
                                            "decision": self.decision.value}),
                  self._decided)

    def _decided(self, ev: Event) -> None:
        coordinator = self.coordinator
        if not ev._ok or coordinator.crashed:
            # Participants voted and hold locks; nobody can decide.
            coordinator.stats.prepared_blocked_participants.extend(
                self.participants)
            self._block()
            return
        join = coordinator.env.all_of(
            [p.finalize(self.txn_id, self.decision)
             for p in self.participants])
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


class _Coordinator:
    """What both coordinators share; each defines ``_record``."""

    crashed = False

    def __init__(self, env: Environment):
        self.env = env
        self.stats = TwoPcStats()

    def _record(self, record: dict) -> Event:
        """Make one coordinator-state transition durable."""
        raise NotImplementedError

    def run(self, txn_id: int, participants: list[Participant],
            payload: Optional[dict] = None) -> Event:
        """Drive 2PC; the returned event fires with a :class:`Decision`."""
        done = self.env.event()
        _TwoPcChain(self, txn_id, participants, payload or {}, done).start()
        return done


class TwoPhaseCoordinator(_Coordinator):
    """A trusted (crash-prone) 2PC coordinator."""

    def __init__(self, env: Environment, extra_phase_delay: float = 0.0):
        super().__init__(env)
        self.extra_phase_delay = extra_phase_delay

    def crash(self) -> None:
        """Crash the coordinator; in-flight transactions block."""
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    def _record(self, record: dict) -> Event:
        """Durable at once; the decision waits out ``extra_phase_delay``."""
        if self.extra_phase_delay and record["phase"] == "decide":
            return self.env.timeout(self.extra_phase_delay)
        return self.env.resolved()


class BftCoordinator(_Coordinator):
    """2PC where every coordinator step is a BFT consensus decision."""

    def __init__(self, env: Environment, pbft: PbftGroup):
        super().__init__(env)
        self.pbft = pbft
        self.consensus_rounds = 0

    def _record(self, record: dict) -> Event:
        """Persist a coordinator-state transition via one PBFT round."""
        self.consensus_rounds += 1
        return self.pbft.propose(record, size=256)
