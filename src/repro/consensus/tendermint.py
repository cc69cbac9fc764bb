"""Tendermint consensus (Buchman) — rotating-proposer BFT.

One block at a time: the proposer for height h is ``peers[h % N]``; the
block goes through prevote and precommit all-to-all voting rounds, each
requiring a 2f+1 quorum, before the height commits and the proposer
rotates.  This no-pipelining, rotate-every-height structure is what makes
Tendermint simpler but slower than pipelined PBFT — the performance trait
the paper leans on when discussing BigchainDB and FalconDB (Table 2).

Simplification vs the full protocol: the lock/unlock rule for Byzantine
proposers is not modelled; round timeouts simply re-propose at the same
height with the next proposer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..sim.costs import CostModel, DEFAULT_COSTS
from ..sim.kernel import Environment, Event, WakeableQueue
from ..sim.network import Message, Network
from ..sim.node import Node
from ..sim.resources import Store
from ..sim.rng import RngRegistry

__all__ = ["TendermintConfig", "TendermintReplica", "TendermintGroup"]


def _grid_wake(start: float, after: float, round_timeout: float,
               block_interval: float) -> float:
    """First wake of the old polling loop's round-wait grid strictly
    greater than ``after``, capped at the round deadline.

    The grid accumulates ``min(remaining, block_interval)`` steps from
    ``start`` with the identical float arithmetic the polling loop's
    chained timeouts performed; pass ``after=inf`` to walk to the
    deadline itself.  A residual below one ulp ends the walk (the grid
    can advance no further).
    """
    t = start
    while t <= after:
        remaining = round_timeout - (t - start)
        if remaining <= 0:
            break
        step = min(remaining, block_interval)
        if t + step == t:
            break
        t += step
    return t


@dataclass
class TendermintConfig:
    block_interval: float = 0.1
    max_block_txns: int = 512
    round_timeout: float = 1.0
    #: Idle-skip mode (Tendermint's ``create_empty_blocks=false``): while
    #: the txpool is idle the proposer parks until work arrives instead of
    #: proposing an empty block every ``block_interval``, and replicas
    #: with no round activity park on the height/round change signal
    #: instead of arming a round-timeout.  Outcome-changing (block heights
    #: and commit times differ from the protocol-faithful default), so it
    #: is gated off by default and fingerprinted separately.  Liveness
    #: assumes a crash-free validator set: round re-proposals cannot fire
    #: while idle, so leave this off for fault-injection studies.
    skip_empty_blocks: bool = False


class TendermintReplica:
    """One Tendermint validator."""

    def __init__(self, env: Environment, node: Node, peers: list[str],
                 network: Network, costs: CostModel = DEFAULT_COSTS,
                 config: Optional[TendermintConfig] = None,
                 rng: Optional[RngRegistry] = None):
        self.env = env
        self.node = node
        self.name = node.name
        self.all_peers = list(peers)
        self.others = [p for p in peers if p != node.name]
        self.n = len(peers)
        self.f = (self.n - 1) // 3
        self.network = network
        self.costs = costs
        self.config = config or TendermintConfig()
        self.rng = (rng or RngRegistry(0)).stream(f"tm:{self.name}")

        self.height = 1
        self.round = 0
        self.mempool: WakeableQueue = WakeableQueue(env)
        self._change_waiter: Optional[Event] = None
        self._proposals: dict[int, list] = {}
        self._prevotes: dict[tuple, set[str]] = {}
        self._precommits: dict[tuple, set[str]] = {}
        self._sent_prevote: set[tuple] = set()
        self._sent_precommit: set[tuple] = set()
        self.applied: Store = Store(env)
        self.commits = 0
        self.rounds_wasted = 0

        self.inbox = node.subscribe("tm")
        env.process(self._receiver(), name=f"tm-recv:{self.name}")
        env.process(self._proposer_loop(), name=f"tm-prop:{self.name}")

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    def proposer_for(self, height: int, round_: int = 0) -> str:
        return self.all_peers[(height + round_) % self.n]

    def propose(self, item: Any, size: int = 256) -> Event:
        ev = self.env.event()
        self.mempool.put((item, ev))
        return ev

    # -- height/round change signalling -----------------------------------------

    def _arm_change(self) -> Event:
        """Arm a one-shot event fired at the next height/round change."""
        ev = self.env.event()
        self._change_waiter = ev
        return ev

    def _disarm_change(self, ev: Event) -> None:
        if self._change_waiter is ev:
            self._change_waiter = None

    def _signal_change(self) -> None:
        ev, self._change_waiter = self._change_waiter, None
        if ev is not None and not ev._triggered:
            ev.succeed("changed")

    def _broadcast(self, mtype: str, payload: dict, size: int = 160) -> None:
        for peer in self.others:
            self.network.send(Message(
                src=self.name, dst=peer, kind="tm",
                payload={"type": mtype, **payload}, size=size))

    # -- proposer --------------------------------------------------------------

    def _proposer_loop(self):
        env = self.env
        config = self.config
        while True:
            height, round_ = self.height, self.round
            if (self.proposer_for(height, round_) == self.name
                    and not self.node.crashed):
                if config.skip_empty_blocks and not self.mempool:
                    # Idle-skip: park until a proposal arrives (or the
                    # height/round moves under us) instead of cutting an
                    # empty block every interval.
                    wake = self.mempool.wait()
                    changed = self._arm_change()
                    yield env.any_of([wake, changed])
                    self._disarm_change(changed)
                    if not wake.triggered:
                        self.mempool.cancel_wait(wake)
                    if (self.height, self.round) != (height, round_):
                        continue
                yield env.timeout(config.block_interval)
                if (self.height, self.round) != (height, round_):
                    continue
                batch = self.mempool.take(config.max_block_txns)
                items = [item for item, _ev in batch]
                self._proposals[height] = batch
                yield self.node.compute(
                    self.costs.bft_message_auth * self.n)
                self._broadcast("proposal", {
                    "height": height, "round": round_, "items": items,
                }, size=128 + sum(256 for _ in items))
                self._cast_prevote(height, round_)
            # Wait for the height to advance or the round to time out —
            # parked on the height/round change signal instead of polling
            # every block_interval.  The polling loop noticed a change
            # only at its next grid wake and declared the round dead at
            # the final grid point, so both resume times are recomputed
            # on the identical accumulated grid.
            start = env.now
            if (self.height, self.round) != (height, round_):
                continue
            if (config.skip_empty_blocks and not self.mempool
                    and not self._round_activity(height, round_)):
                # Idle-skip: nothing proposed, nothing queued — park on
                # the change signal with no round deadline (round
                # re-proposal needs a crash to matter; see the config
                # flag's liveness note).
                changed = self._arm_change()
                wake = self.mempool.wait()
                yield env.any_of([changed, wake])
                self._disarm_change(changed)
                if not wake.triggered:
                    self.mempool.cancel_wait(wake)
                continue
            deadline = _grid_wake(start, float("inf"), config.round_timeout,
                                  config.block_interval)
            changed = self._arm_change()
            timer = env.timeout_at(deadline, "deadline")
            winner = yield env.any_of([changed, timer])
            if winner == "deadline":
                self._disarm_change(changed)
                # Re-check before declaring the round dead: a commit can
                # land between the timer's dispatch and this resume (same
                # simulated time), and bumping the *fresh* height's round
                # would skew proposer rotation.
                if (self.height, self.round) == (height, round_):
                    self.rounds_wasted += 1
                    self.round += 1
                continue
            timer.cancel()
            # Height/round changed mid-round: resume at the first grid
            # wake strictly after the change, as the polling loop did.
            wake = _grid_wake(start, env.now, config.round_timeout,
                              config.block_interval)
            if wake > env.now:
                yield env.timeout_at(wake)

    def _round_activity(self, height: int, round_: int) -> bool:
        """True when this round has a proposal or votes in flight."""
        key = (height, round_)
        return (height in self._proposals or key in self._prevotes
                or key in self._precommits)

    # -- voting ----------------------------------------------------------------

    def _receiver(self):
        while True:
            msg = yield self.inbox.get()
            if self.node.crashed:
                continue
            yield self.node.compute(self.costs.bft_message_auth)
            payload = msg.payload
            mtype = payload["type"]
            height = payload["height"]
            if height < self.height:
                continue
            if mtype == "proposal":
                self._proposals.setdefault(
                    height, [(item, None) for item in payload["items"]])
                self._cast_prevote(height, payload["round"])
            elif mtype == "prevote":
                key = (height, payload["round"])
                votes = self._prevotes.setdefault(key, set())
                votes.add(msg.src)
                self._maybe_precommit(height, payload["round"])
            elif mtype == "precommit":
                key = (height, payload["round"])
                votes = self._precommits.setdefault(key, set())
                votes.add(msg.src)
                self._maybe_commit(height, payload["round"])

    def _cast_prevote(self, height: int, round_: int) -> None:
        key = (height, round_)
        if key in self._sent_prevote:
            return
        self._sent_prevote.add(key)
        self._broadcast("prevote", {"height": height, "round": round_},
                        size=128)
        self._prevotes.setdefault(key, set()).add(self.name)
        self._maybe_precommit(height, round_)

    def _maybe_precommit(self, height: int, round_: int) -> None:
        key = (height, round_)
        if key in self._sent_precommit:
            return
        if len(self._prevotes.get(key, ())) >= self.quorum:
            self._sent_precommit.add(key)
            self._broadcast("precommit", {"height": height, "round": round_},
                            size=128)
            self._precommits.setdefault(key, set()).add(self.name)
            self._maybe_commit(height, round_)

    def _maybe_commit(self, height: int, round_: int) -> None:
        if height != self.height:
            return
        key = (height, round_)
        if len(self._precommits.get(key, ())) >= self.quorum:
            batch = self._proposals.pop(height, [])
            self.height += 1
            self.round = 0
            self._signal_change()
            self.commits += 1
            items = []
            for item, ev in batch:
                items.append(item)
                if ev is not None and not ev.triggered:
                    ev.succeed((height, item))
            self.applied.put((height, items))


class TendermintGroup:
    """A Tendermint validator set."""

    def __init__(self, env: Environment, nodes: list[Node], network: Network,
                 costs: CostModel = DEFAULT_COSTS,
                 config: Optional[TendermintConfig] = None,
                 rng: Optional[RngRegistry] = None):
        self.env = env
        names = [n.name for n in nodes]
        self.replicas = {
            n.name: TendermintReplica(env, n, names, network, costs,
                                      config, rng)
            for n in nodes
        }

    def propose(self, item: Any, size: int = 256) -> Event:
        """Submit to the proposer of the current height (gossip shortcut)."""
        height = max(r.height for r in self.replicas.values())
        for replica in self.replicas.values():
            if (replica.proposer_for(height, replica.round) == replica.name
                    and not replica.node.crashed):
                return replica.propose(item, size)
        # fall back to any live replica's mempool
        for replica in self.replicas.values():
            if not replica.node.crashed:
                return replica.propose(item, size)
        ev = self.env.event()
        ev.fail(RuntimeError("no live validators"))
        return ev
