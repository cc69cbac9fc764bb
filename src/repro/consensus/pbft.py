"""Practical Byzantine Fault Tolerance (Castro & Liskov) — simulated.

Normal-case three-phase commit (pre-prepare, prepare, commit) with
batching, plus view change on primary failure.  Quorums are 2f+1 out of
N = 3f+1.  Every protocol message carries an authentication cost
(``bft_message_auth``), which — together with the all-to-all prepare and
commit phases — produces the O(N^2) network cost the paper contrasts with
CFT's O(N) (Section 3.1.3).

Byzantine behaviours used by tests: an *equivocating* primary sends
conflicting pre-prepares to different replicas; the protocol's per-digest
quorums must prevent conflicting commits at the same sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim.costs import CostModel, DEFAULT_COSTS
from ..sim.kernel import Environment, Event, WakeableQueue
from ..sim.network import Message, Network
from ..sim.node import Node
from ..sim.resources import Store
from ..sim.rng import RngRegistry
from .base import wake_batches

__all__ = ["PbftConfig", "PbftReplica", "PbftGroup"]


@dataclass
class PbftConfig:
    """PBFT timing/batching knobs."""

    batch_window: float = 0.01
    max_batch: int = 64
    heartbeat_interval: float = 0.2
    view_change_timeout: float = 2.0
    gap_repair_interval: float = 0.5  # state-transfer probe period
    message_kind: str = "pbft"


class PbftReplica:
    """One PBFT replica; the primary of view v is ``peers[v % N]``."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        peers: list[str],
        network: Network,
        costs: CostModel = DEFAULT_COSTS,
        config: Optional[PbftConfig] = None,
        rng: Optional[RngRegistry] = None,
        byzantine_equivocator: bool = False,
    ):
        self.env = env
        self.node = node
        self.name = node.name
        self.all_peers = list(peers)
        self.others = [p for p in peers if p != node.name]
        self.n = len(peers)
        self.f = (self.n - 1) // 3
        self.network = network
        self.costs = costs
        self.config = config or PbftConfig()
        self.rng = (rng or RngRegistry(0)).stream(f"pbft:{self.name}")
        # Byzantine behaviours, all runtime-togglable (checked per batch /
        # per heartbeat) so the chaos injector can switch them on for a
        # scenario window: an equivocating primary sends conflicting
        # pre-prepares, a censoring primary silently drops matching items,
        # a silent primary stops leading entirely (heartbeats included)
        # until the view change votes it out.
        self.byzantine_equivocator = byzantine_equivocator
        self.censor_predicate: Optional[Callable[[Any], bool]] = None
        self.silent = False
        self.censored_count = 0
        self.silenced_count = 0
        # Proposal events a byzantine window swallowed (silenced or
        # censored): a real byzantine primary never answers these, so
        # they hang until the view change evicts it — _enter_view then
        # fails them and the clients re-submit to the new primary.
        self._swallowed: list[Event] = []

        self.view = 0
        self.next_seq = 1            # primary's sequence allocator
        self.executed_seq = 0        # highest contiguously executed sequence
        self._batches: dict[int, dict] = {}      # seq -> batch record
        self._prepares: dict[tuple, set[str]] = {}
        self._commits: dict[tuple, set[str]] = {}
        self._committed: dict[int, Any] = {}     # seq -> items awaiting exec
        self._pending_events: dict[int, list[Event]] = {}
        self._proposal_queue: WakeableQueue = WakeableQueue(env)
        self._view_changes: dict[int, set[str]] = {}
        self._history: dict[int, Any] = {}   # executed seq -> items
        self._last_preprepare = env.now

        self.applied: Store = Store(env)
        self.inbox = node.subscribe(self.config.message_kind)
        self.commits_count = 0
        self.view_changes_count = 0

        env.process(self._receiver(), name=f"pbft-recv:{self.name}")
        env.process(self._liveness_timer(), name=f"pbft-timer:{self.name}")
        env.process(self._gap_repair_timer(),
                    name=f"pbft-repair:{self.name}")
        if self.is_primary:
            env.process(self._primary_loop(self.view),
                        name=f"pbft-primary:{self.name}")
        node.on_recover.append(self._on_restart)

    def _on_restart(self) -> None:
        """Node restart hook: restart with a fresh liveness window.

        Protocol state (executed history, view) is durable; the liveness
        clock is not — without the reset a replica down longer than the
        view-change timeout would immediately vote against a healthy
        primary on its first post-restart tick.  A restarted primary's
        parked loop resumes by itself if the view hasn't moved on.
        """
        self._last_preprepare = self.env.now

    # -- roles -----------------------------------------------------------------

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def primary_name(self) -> str:
        return self.all_peers[self.view % self.n]

    @property
    def is_primary(self) -> bool:
        return self.primary_name == self.name

    def _send(self, dst: str, mtype: str, payload: dict, size: int = 160) -> None:
        self.network.send(Message(
            src=self.name, dst=dst, kind=self.config.message_kind,
            payload={"type": mtype, "view": self.view, **payload}, size=size))

    def _broadcast(self, mtype: str, payload: dict, size: int = 160) -> None:
        for peer in self.others:
            self._send(peer, mtype, payload, size)

    # -- client API ---------------------------------------------------------------

    def propose(self, item: Any, size: int = 256) -> Event:
        """Queue ``item`` for ordering (primary only).

        The put wakes a primary loop parked on the proposal queue at the
        same simulated time (wake-on-proposal — no polling delay).
        """
        ev = self.env.event()
        if not self.is_primary or self.node.crashed:
            ev.fail(RuntimeError(f"not primary (primary={self.primary_name})"))
            return ev
        self._proposal_queue.put((item, size, ev))
        return ev

    def release_stranded(self) -> int:
        """Fail every proposal a byzantine window swallowed.

        Censorship is invisible to the liveness timers (the primary
        keeps heartbeating), so no view change ever rescues these; the
        chaos injector calls this when the window closes, modelling the
        clients' own timeout-and-resubmit path.
        """
        stranded, self._swallowed = self._swallowed, []
        failed = 0
        for ev in stranded:
            if not ev.triggered:
                ev.fail(RuntimeError("proposal swallowed by byzantine "
                                     "primary; resubmit"))
                failed += 1
        return failed

    # -- primary ---------------------------------------------------------------------

    def _primary_loop(self, view: int):
        last_beat = self.env.now
        config = self.config

        def still_primary() -> bool:
            # The polling loop's mid-window liveness check deliberately
            # omitted is_primary (a same-view membership change hands
            # off at the loop top, not mid-batch).
            return self.view == view and not self.node.crashed

        def send_heartbeat() -> None:
            if self.silent:
                return  # silent leader: followers see a dead primary
            self._broadcast("heartbeat", {}, size=96)

        while (self.view == view and self.is_primary
               and not self.node.crashed):
            # One batch window per iteration, closed on the accumulated
            # grid of the old polling loop; parked while idle (see
            # consensus.base.wake_batches for the full contract).
            batch, last_beat = yield from wake_batches(
                self.env, self._proposal_queue, config.batch_window,
                config.max_batch, config.heartbeat_interval,
                still_primary, send_heartbeat, last_beat)
            if batch is None:
                break
            if not batch:
                continue
            if self.silent:
                # Proposals vanish into the silent primary; their events
                # never fire and clients time out, until the liveness
                # timers elect the next view.
                self.silenced_count += len(batch)
                self._swallowed.extend(ev for _i, _s, ev in batch)
                continue
            if self.censor_predicate is not None:
                kept = [(i, s, e) for (i, s, e) in batch
                        if not self.censor_predicate(i)]
                self.censored_count += len(batch) - len(kept)
                self._swallowed.extend(
                    ev for (i, _s, ev) in batch if self.censor_predicate(i))
                batch = kept
                if not batch:
                    continue
            seq = self.next_seq
            self.next_seq += 1
            items = [item for item, _size, _ev in batch]
            total_size = 128 + sum(size for _item, size, _ev in batch)
            self._pending_events[seq] = [ev for _i, _s, ev in batch]
            digest = f"d:{view}:{seq}"
            yield self.node.compute(
                self.costs.bft_message_auth * self.n)
            if self.byzantine_equivocator:
                self._equivocate(seq, items, total_size)
            else:
                self._broadcast("pre_prepare", {
                    "seq": seq, "digest": digest, "items": items,
                }, size=total_size)
            self._accept_preprepare(view, seq, digest, items)
            last_beat = self.env.now

    def _equivocate(self, seq: int, items: list, size: int) -> None:
        """Byzantine primary: conflicting pre-prepares to two halves."""
        half = len(self.others) // 2
        for i, peer in enumerate(self.others):
            digest = f"evil-a:{seq}" if i < half else f"evil-b:{seq}"
            sent_items = items if i < half else list(reversed(items))
            self._send(peer, "pre_prepare", {
                "seq": seq, "digest": digest, "items": sent_items,
            }, size=size)

    # -- receive path -------------------------------------------------------------------

    def _receiver(self):
        while True:
            msg = yield self.inbox.get()
            if self.node.crashed:
                continue
            # verify the message authenticator
            yield self.node.compute(self.costs.bft_message_auth)
            payload = msg.payload
            mtype = payload["type"]
            if mtype == "pre_prepare":
                self._on_preprepare(msg.src, payload)
            elif mtype == "prepare":
                self._on_prepare(msg.src, payload)
            elif mtype == "commit":
                self._on_commit(msg.src, payload)
            elif mtype == "heartbeat":
                if payload["view"] >= self.view:
                    self._last_preprepare = self.env.now
            elif mtype == "view_change":
                self._on_view_change(msg.src, payload)
            elif mtype == "new_view":
                self._on_new_view(msg.src, payload)
            elif mtype == "fetch":
                self._on_fetch(msg.src, payload)
            elif mtype == "fetch_reply":
                self._on_fetch_reply(payload)

    def _on_preprepare(self, src: str, payload: dict) -> None:
        view, seq = payload["view"], payload["seq"]
        if view != self.view or src != self.primary_name:
            return
        if seq in self._batches:
            return  # primary equivocation to *us* (only first accepted)
        self._accept_preprepare(view, seq, payload["digest"], payload["items"])

    def _accept_preprepare(self, view: int, seq: int, digest: str,
                           items: list) -> None:
        self._last_preprepare = self.env.now
        self._batches[seq] = {"view": view, "digest": digest, "items": items}
        self._broadcast("prepare", {"seq": seq, "digest": digest}, size=128)
        self._record_prepare(self.name, view, seq, digest)

    def _on_prepare(self, src: str, payload: dict) -> None:
        if payload["view"] != self.view:
            return
        self._record_prepare(src, payload["view"], payload["seq"],
                             payload["digest"])

    def _record_prepare(self, src: str, view: int, seq: int,
                        digest: str) -> None:
        key = (view, seq, digest)
        votes = self._prepares.setdefault(key, set())
        votes.add(src)
        batch = self._batches.get(seq)
        if batch is None or batch["digest"] != digest:
            return
        if len(votes) >= self.quorum and not batch.get("prepared"):
            batch["prepared"] = True
            self._broadcast("commit", {"seq": seq, "digest": digest}, size=128)
            self._record_commit(self.name, view, seq, digest)

    def _on_commit(self, src: str, payload: dict) -> None:
        if payload["view"] != self.view:
            return
        self._record_commit(src, payload["view"], payload["seq"],
                            payload["digest"])

    def _record_commit(self, src: str, view: int, seq: int,
                       digest: str) -> None:
        key = (view, seq, digest)
        votes = self._commits.setdefault(key, set())
        votes.add(src)
        batch = self._batches.get(seq)
        if batch is None or batch["digest"] != digest:
            return
        if len(votes) >= self.quorum and not batch.get("committed"):
            batch["committed"] = True
            self._committed[seq] = batch["items"]
            self._execute_ready()

    def _execute_ready(self) -> None:
        while self.executed_seq + 1 in self._committed:
            seq = self.executed_seq + 1
            items = self._committed.pop(seq)
            self.executed_seq = seq
            self._history[seq] = items
            self.commits_count += 1
            self.applied.put((seq, items))
            for ev in self._pending_events.pop(seq, []):
                if not ev.triggered:
                    ev.succeed((seq, items))

    # -- gap repair (state transfer) -----------------------------------------

    def _gap_repair_timer(self):
        """Recover lost batches: if a sequence gap persists (messages for
        it were dropped), fetch the executed history from a peer — the
        role PBFT checkpointing/state transfer plays."""
        while True:
            yield self.env.timeout(self.config.gap_repair_interval)
            if self.node.crashed:
                continue
            stuck = (self._committed
                     and min(self._committed) > self.executed_seq + 1)
            if stuck or self._committed:
                peer = self.rng.choice(self.others)
                self._send(peer, "fetch", {"after": self.executed_seq},
                           size=96)

    def _on_fetch(self, src: str, payload: dict) -> None:
        after = payload["after"]
        batches = [(seq, self._history[seq])
                   for seq in range(after + 1,
                                    min(self.executed_seq,
                                        after + 64) + 1)
                   if seq in self._history]
        if batches:
            self._send(src, "fetch_reply", {"batches": batches},
                       size=256 * len(batches))

    def _on_fetch_reply(self, payload: dict) -> None:
        # Batches come from an executed prefix; in full PBFT they carry a
        # checkpoint proof — here the simulated peer is honest-or-crashed
        # for CFT-style tests, and equivocation tests never reach repair.
        for seq, items in payload["batches"]:
            if seq > self.executed_seq and seq not in self._committed:
                self._committed[seq] = items
        self._execute_ready()

    # -- view change --------------------------------------------------------------------

    def _liveness_timer(self):
        while True:
            yield self.env.timeout(self.config.view_change_timeout)
            if self.node.crashed or self.is_primary:
                continue
            if (self.env.now - self._last_preprepare
                    >= self.config.view_change_timeout):
                self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        self.view_changes_count += 1
        self._broadcast("view_change",
                        {"new_view": new_view,
                         "executed": self.executed_seq}, size=256)
        self._record_view_change(self.name, new_view)

    def _on_view_change(self, src: str, payload: dict) -> None:
        self._record_view_change(src, payload["new_view"])

    def _record_view_change(self, src: str, new_view: int) -> None:
        if new_view <= self.view:
            return
        votes = self._view_changes.setdefault(new_view, set())
        votes.add(src)
        if (len(votes) >= self.quorum
                and self.all_peers[new_view % self.n] == self.name):
            self._enter_view(new_view)
            self._broadcast("new_view", {"new_view": new_view}, size=256)

    def _on_new_view(self, src: str, payload: dict) -> None:
        new_view = payload["new_view"]
        if new_view > self.view and self.all_peers[new_view % self.n] == src:
            self._enter_view(new_view)

    def _enter_view(self, new_view: int) -> None:
        self.view = new_view
        self._last_preprepare = self.env.now
        # Uncommitted batches from earlier views are abandoned; clients of a
        # real PBFT re-submit. Sequence numbering continues after the
        # highest executed sequence.
        self.next_seq = self.executed_seq + 1
        for seq in list(self._batches):
            if seq > self.executed_seq:
                del self._batches[seq]
        # Proposals stranded at the deposed primary fail loudly so their
        # clients re-submit to the new view — without this, a
        # single-outstanding-propose client (quorum's block producer,
        # wedged behind a silent or censoring primary) parks forever.
        # Three strand points: still queued, swallowed by a byzantine
        # window, or batched into a sequence the view change abandoned.
        stranded = [ev for _item, _size, ev in self._proposal_queue.drain()]
        stranded.extend(self._swallowed)
        self._swallowed = []
        for seq in list(self._pending_events):
            if seq > self.executed_seq:
                stranded.extend(self._pending_events.pop(seq))
        for ev in stranded:
            if not ev.triggered:
                ev.fail(RuntimeError(
                    f"view changed to {new_view}; resubmit"))
        if self.is_primary:
            self.env.process(self._primary_loop(new_view),
                             name=f"pbft-primary:{self.name}")


class PbftGroup:
    """A PBFT cluster with client-side primary tracking."""

    def __init__(
        self,
        env: Environment,
        nodes: list[Node],
        network: Network,
        costs: CostModel = DEFAULT_COSTS,
        config: Optional[PbftConfig] = None,
        rng: Optional[RngRegistry] = None,
        byzantine: Optional[set[str]] = None,
    ):
        self.env = env
        names = [n.name for n in nodes]
        byzantine = byzantine or set()
        self.replicas: dict[str, PbftReplica] = {
            n.name: PbftReplica(
                env, n, names, network, costs, config, rng,
                byzantine_equivocator=n.name in byzantine)
            for n in nodes
        }

    @property
    def primary(self) -> Optional[PbftReplica]:
        views = max(r.view for r in self.replicas.values()
                    if not r.node.crashed)
        for replica in self.replicas.values():
            if replica.view == views and replica.is_primary \
                    and not replica.node.crashed:
                return replica
        return None

    def propose(self, item: Any, size: int = 256) -> Event:
        primary = self.primary
        if primary is None:
            ev = self.env.event()
            ev.fail(RuntimeError("no live primary"))
            return ev
        return primary.propose(item, size)

    def executed_sequences(self) -> dict[str, int]:
        return {name: r.executed_seq for name, r in self.replicas.items()}
