"""Raft consensus (Ongaro & Ousterhout) over the simulated network.

A faithful normal-case and failover implementation: randomized election
timeouts, term-checked RequestVote with the up-to-date-log rule, leader
heartbeats, log replication with conflict rollback via next-index probing,
and quorum commit.  Entries are *batched* (etcd-style): the leader
accumulates proposals for a short window or until ``max_batch`` and ships
one AppendEntries per follower per batch — the per-follower egress cost is
what makes leader throughput decline with group size (Table 4, etcd row).

Performance note: replicas expose an ``applied`` store; systems consume it
to apply entries to their state machines, charging their own apply costs.
The store is made the first time something takes it, and queues only the
entries committed after that: a replica whose stream nobody reads (etcd's
followers) holds no copy of the log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim.costs import CostModel, DEFAULT_COSTS
from ..sim.kernel import Environment, Event, WakeableQueue, subscribe
from ..sim.network import Message, Network
from ..sim.node import Node
from ..sim.resources import Store
from ..sim.rng import RngRegistry
from .base import LogEntry, wake_batches

__all__ = ["RaftConfig", "RaftReplica", "RaftGroup"]

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


@dataclass
class RaftConfig:
    """Tunable Raft timing parameters (simulated seconds)."""

    heartbeat_interval: float = 0.1
    election_timeout_min: float = 1.0
    election_timeout_max: float = 2.0
    batch_window: float = 0.001
    max_batch: int = 64
    entry_overhead: int = 48
    message_kind: str = "raft"


@dataclass
class _Pending:
    entry: LogEntry
    event: Event


class _Receiver:
    """A replica's message pump as a perpetual flat chain.

    One parked callback on ``inbox.get()`` and one on the receive-CPU
    serve per message, then the synchronous protocol dispatch — the
    identical wait sequence the old ``_receiver`` coroutine issued.  At
    five nodes per group the receivers were the largest remaining
    ``Process._resume`` source on the DB-side BENCH points (two resumes
    per message, every message, every replica).
    """

    __slots__ = ("replica", "msg")

    def __init__(self, replica: "RaftReplica"):
        self.replica = replica
        self.msg = None

    def start(self) -> None:
        self.replica.env._schedule_call(self._next, None)

    def _next(self, _arg) -> None:
        subscribe(self.replica.inbox.get(), self._got)

    def _got(self, ev: Event) -> None:
        replica = self.replica
        if replica.node.crashed:
            self._next(None)
            return
        self.msg = ev._value
        replica.node.cpu.serve_then(
            replica.costs.net_recv_overhead, self._handle)

    def _handle(self, _arg) -> None:
        self.replica._on_message(self.msg)
        self._next(None)


class RaftReplica:
    """One Raft participant running on a simulated node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        peers: list[str],
        network: Network,
        costs: CostModel = DEFAULT_COSTS,
        config: Optional[RaftConfig] = None,
        rng: Optional[RngRegistry] = None,
    ):
        self.env = env
        self.node = node
        self.name = node.name
        self.peers = [p for p in peers if p != node.name]
        self.cluster_size = len(peers)
        self.network = network
        self.costs = costs
        self.config = config or RaftConfig()
        self.rng = (rng or RngRegistry(0)).stream(f"raft:{self.name}")

        self.role = FOLLOWER
        self.term = 0
        self.voted_for: Optional[str] = None
        self.log: list[LogEntry] = []
        self.commit_index = 0  # 1-based count of committed entries
        self.last_applied = 0
        self.leader_hint: Optional[str] = None

        # leader state
        self.next_index: dict[str, int] = {}
        self.match_index: dict[str, int] = {}
        self._pending: dict[int, _Pending] = {}  # log index -> waiter
        self._proposal_queue: WakeableQueue = WakeableQueue(env)

        # follower liveness
        self._last_heartbeat = env.now

        # apply stream consumed by the hosting system; see ``applied``
        self._applied: Optional[Store] = None

        self.inbox = node.subscribe(self.config.message_kind)
        self.commits = 0
        self.elections_started = 0
        self.on_leader_change: Optional[Callable[[str], None]] = None

        _Receiver(self).start()
        env.process(self._election_timer(), name=f"raft-timer:{self.name}")
        node.on_recover.append(self._on_restart)

    def _on_restart(self) -> None:
        """Node restart hook (:attr:`repro.sim.node.Node.on_recover`).

        Durable Raft state (log, term, vote) survives — the protocol's
        own WAL persists it — but leadership is volatile: a restarted
        replica comes back as a follower with a fresh liveness window,
        and proposals queued pre-crash belonged to client sessions that
        died with the process.  In-flight ``_pending`` waiters are left
        to resolve (or hang for the driver's timeout) exactly as after a
        :meth:`_step_down`.
        """
        self.role = FOLLOWER
        self._last_heartbeat = self.env.now
        for pending in self._proposal_queue.drain():
            if not pending.event.triggered:
                pending.event.fail(NotLeader(None))

    # -- helpers -----------------------------------------------------------

    @property
    def quorum(self) -> int:
        return self.cluster_size // 2 + 1

    def _last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def _send(self, dst: str, kind: str, payload: dict, size: int = 128) -> None:
        self.network.send(Message(
            src=self.name, dst=dst, kind=self.config.message_kind,
            payload={"type": kind, **payload}, size=size))

    def _election_timeout(self) -> float:
        lo = self.config.election_timeout_min
        hi = self.config.election_timeout_max
        return self.rng.uniform(lo, hi)

    # -- client API ----------------------------------------------------------

    def propose(self, item: Any, size: int = 256) -> Event:
        """Propose ``item``; the event fires with (index, item) at commit.

        Fails with ``NotLeader`` if this replica isn't the leader.  The
        put wakes a leader loop parked on the proposal queue at the same
        simulated time (wake-on-proposal — no polling delay).
        """
        ev = self.env.event()
        if self.role != LEADER or self.node.crashed:
            ev.fail(NotLeader(self.leader_hint))
            return ev
        entry = LogEntry(term=self.term, item=item, size=size)
        self._proposal_queue.put(_Pending(entry=entry, event=ev))
        return ev

    # -- receive loop -----------------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        """Synchronous protocol dispatch (driven by the _Receiver chain)."""
        payload = msg.payload
        mtype = payload["type"]
        if payload.get("term", 0) > self.term:
            self._step_down(payload["term"])
        if mtype == "request_vote":
            self._on_request_vote(msg.src, payload)
        elif mtype == "vote_reply":
            self._on_vote_reply(msg.src, payload)
        elif mtype == "append_entries":
            self._on_append_entries(msg.src, payload)
        elif mtype == "append_reply":
            self._on_append_reply(msg.src, payload)

    def _step_down(self, term: int) -> None:
        was_leader = self.role == LEADER
        self.term = term
        self.role = FOLLOWER
        self.voted_for = None
        if was_leader:
            for pending in self._proposal_queue.drain():
                if not pending.event.triggered:
                    pending.event.fail(NotLeader(None))
            # in-flight pendings will be resolved if the entry survives in
            # the new leader's log; otherwise they hang and the client
            # driver times out / retries (as etcd clients do).

    # -- elections ----------------------------------------------------------------

    def _election_timer(self):
        while True:
            timeout = self._election_timeout()
            yield self.env.timeout(timeout)
            if self.node.crashed or self.role == LEADER:
                continue
            if self.env.now - self._last_heartbeat >= timeout * 0.99:
                self._start_election()

    def _start_election(self) -> None:
        self.elections_started += 1
        self.role = CANDIDATE
        self.term += 1
        self.voted_for = self.name
        self._votes = {self.name}
        self._last_heartbeat = self.env.now
        for peer in self.peers:
            self._send(peer, "request_vote", {
                "term": self.term,
                "last_log_index": len(self.log),
                "last_log_term": self._last_log_term(),
            })
        if len(self._votes) >= self.quorum:  # single-node cluster
            self._become_leader()

    def _on_request_vote(self, src: str, payload: dict) -> None:
        term = payload["term"]
        grant = False
        if term >= self.term and self.voted_for in (None, src):
            # up-to-date rule: candidate's log must not be behind ours
            my_term, my_len = self._last_log_term(), len(self.log)
            cand_term = payload["last_log_term"]
            cand_len = payload["last_log_index"]
            if (cand_term, cand_len) >= (my_term, my_len):
                grant = True
                self.voted_for = src
                self._last_heartbeat = self.env.now
        self._send(src, "vote_reply", {"term": self.term, "granted": grant})

    def _on_vote_reply(self, src: str, payload: dict) -> None:
        if self.role != CANDIDATE or payload["term"] != self.term:
            return
        if payload["granted"]:
            self._votes.add(src)
            if len(self._votes) >= self.quorum:
                self._become_leader()

    def _become_leader(self) -> None:
        self.role = LEADER
        self.leader_hint = self.name
        self.next_index = {p: len(self.log) + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        if self.on_leader_change is not None:
            self.on_leader_change(self.name)
        self.env.process(self._leader_loop(self.term),
                         name=f"raft-lead:{self.name}")

    # -- leader operation -------------------------------------------------------------

    def _leader_loop(self, term: int):
        # Immediately assert leadership.
        self._broadcast_append(heartbeat=True)
        last_beat = self.env.now
        config = self.config

        def still_leader() -> bool:
            return (self.role == LEADER and self.term == term
                    and not self.node.crashed)

        def send_heartbeat() -> None:
            self._broadcast_append(heartbeat=True)

        while still_leader():
            # One batch window per iteration, closed on the same
            # accumulated time grid the polling loop walked — but parked
            # on the proposal queue, not polled, while idle (see
            # consensus.base.wake_batches for the full contract).
            batch, last_beat = yield from wake_batches(
                self.env, self._proposal_queue, config.batch_window,
                config.max_batch, config.heartbeat_interval,
                still_leader, send_heartbeat, last_beat)
            if batch is None:
                break
            if not batch:
                # Heartbeat wake, or a racing role change drained the
                # queue mid-window.
                continue
            for pending in batch:
                yield self.node.compute(self.costs.raft_propose)
                self.log.append(pending.entry)
                self._pending[len(self.log)] = pending
            # WAL group-commit for the batch
            yield self.node.disk_write(self.costs.wal_sync)
            self._broadcast_append()
            last_beat = self.env.now
            self._maybe_commit()

    def _broadcast_append(self, heartbeat: bool = False) -> None:
        for peer in self.peers:
            self._send_append(peer, heartbeat=heartbeat)

    def _send_append(self, peer: str, heartbeat: bool = False) -> None:
        next_idx = self.next_index.get(peer, len(self.log) + 1)
        prev_index = next_idx - 1
        prev_term = self.log[prev_index - 1].term if prev_index >= 1 and prev_index <= len(self.log) else 0
        entries = [] if heartbeat else self.log[next_idx - 1:]
        size = 96 + sum(self.config.entry_overhead + e.size for e in entries)
        self._send(peer, "append_entries", {
            "term": self.term,
            "prev_index": prev_index,
            "prev_term": prev_term,
            "entries": entries,
            "leader_commit": self.commit_index,
        }, size=size)
        if entries:
            # Pipeline optimistically (etcd-raft style): assume success and
            # ship only new entries next time; a failure reply rolls
            # next_index back via its match hint.
            self.next_index[peer] = prev_index + len(entries) + 1

    def _on_append_entries(self, src: str, payload: dict) -> None:
        term = payload["term"]
        if term < self.term:
            self._send(src, "append_reply",
                       {"term": self.term, "success": False, "match": 0})
            return
        self._last_heartbeat = self.env.now
        self.role = FOLLOWER
        self.leader_hint = src
        prev_index = payload["prev_index"]
        prev_term = payload["prev_term"]
        if prev_index > len(self.log) or (
                prev_index >= 1 and self.log[prev_index - 1].term != prev_term):
            self._send(src, "append_reply",
                       {"term": self.term, "success": False,
                        "match": min(prev_index - 1, len(self.log))})
            return
        entries = payload["entries"]
        # Truncate conflicts and append the new suffix.
        index = prev_index
        for entry in entries:
            index += 1
            if index <= len(self.log):
                if self.log[index - 1].term != entry.term:
                    del self.log[index - 1:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
        leader_commit = payload["leader_commit"]
        if leader_commit > self.commit_index:
            self._advance_commit(min(leader_commit, len(self.log)))
        self._send(src, "append_reply",
                   {"term": self.term, "success": True, "match": index})

    def _on_append_reply(self, src: str, payload: dict) -> None:
        if self.role != LEADER or payload["term"] != self.term:
            return
        if payload["success"]:
            self.match_index[src] = max(self.match_index.get(src, 0),
                                        payload["match"])
            # Pipelined sends may already have advanced next_index past
            # this (older) acknowledgment — never move it backwards.
            self.next_index[src] = max(self.next_index.get(src, 1),
                                       self.match_index[src] + 1)
            self._maybe_commit()
        else:
            hint = payload.get("match", 0)
            self.next_index[src] = max(1, min(self.next_index.get(src, 1) - 1,
                                              hint + 1))
            self._send_append(src)

    def _maybe_commit(self) -> None:
        if self.role != LEADER:
            return
        matches = sorted([len(self.log)] + list(self.match_index.values()),
                         reverse=True)
        candidate = matches[self.quorum - 1]
        if candidate > self.commit_index and candidate >= 1 \
                and self.log[candidate - 1].term == self.term:
            self._advance_commit(candidate)
            # Piggy-back the new commit index promptly so followers apply.
            self._broadcast_append(heartbeat=True)

    @property
    def applied(self) -> Store:
        """The apply stream: ``(index, item)`` per entry committed since
        the first access."""
        if self._applied is None:
            self._applied = Store(self.env)
        return self._applied

    def _advance_commit(self, new_commit: int) -> None:
        applied = self._applied
        while self.commit_index < new_commit:
            self.commit_index += 1
            idx = self.commit_index
            entry = self.log[idx - 1]
            self.commits += 1
            if applied is not None:
                applied.put((idx, entry.item))
            pending = self._pending.pop(idx, None)
            if pending is not None and not pending.event.triggered:
                if pending.entry is entry:
                    pending.event.succeed((idx, entry.item))
                else:
                    pending.event.fail(NotLeader(self.leader_hint))


class NotLeader(Exception):
    """Raised to a proposer that contacted a non-leader replica."""

    def __init__(self, hint: Optional[str]):
        super().__init__(f"not leader (hint: {hint})")
        self.hint = hint


class RaftGroup:
    """A full Raft cluster plus client-side leader tracking."""

    def __init__(
        self,
        env: Environment,
        nodes: list[Node],
        network: Network,
        costs: CostModel = DEFAULT_COSTS,
        config: Optional[RaftConfig] = None,
        rng: Optional[RngRegistry] = None,
        bootstrap_leader: bool = True,
    ):
        self.env = env
        self.network = network
        names = [n.name for n in nodes]
        self.replicas: dict[str, RaftReplica] = {
            n.name: RaftReplica(env, n, names, network, costs, config, rng)
            for n in nodes
        }
        if bootstrap_leader:
            first = self.replicas[names[0]]
            first.term = 1
            first._votes = set(names)
            first._become_leader()

    @property
    def leader(self) -> Optional[RaftReplica]:
        leaders = [r for r in self.replicas.values()
                   if r.role == LEADER and not r.node.crashed]
        if not leaders:
            return None
        return max(leaders, key=lambda r: r.term)

    def propose(self, item: Any, size: int = 256) -> Event:
        """Propose via the current leader (clients track the leader hint)."""
        leader = self.leader
        if leader is None:
            ev = self.env.event()
            ev.fail(NotLeader(None))
            return ev
        return leader.propose(item, size)
