"""Shared-log ordering service (Kafka / Fabric ordering service / Corfu).

The paper's Section 3.1.2 third replication approach: ordering is
decoupled from state replication.  A small, fixed group of orderer nodes
(3 in the paper's Fabric setup) sequences appended items with an internal
Raft instance and *cuts blocks* by count or timeout; consumer nodes
subscribe and receive the block stream.  Because consumers don't
participate in ordering, ordering throughput stays constant as consumers
scale — until delivery fan-out saturates the orderer egress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..sim.costs import CostModel, DEFAULT_COSTS
from ..sim.kernel import Environment, Event
from ..sim.network import Message, Network
from ..sim.node import Node
from ..sim.resources import Store
from ..sim.rng import RngRegistry
from .raft import RaftConfig, RaftGroup

__all__ = ["SharedLogConfig", "OrderingService"]


@dataclass
class SharedLogConfig:
    """Block-cut policy (Fabric: BatchSize / BatchTimeout)."""

    block_max_items: int = 100
    block_timeout: float = 0.7       # Fig. 8a: order phase ~700 ms unsaturated


class OrderingService:
    """A Raft-backed ordering service with block cutting and delivery."""

    def __init__(
        self,
        env: Environment,
        orderer_nodes: list[Node],
        network: Network,
        costs: CostModel = DEFAULT_COSTS,
        config: Optional[SharedLogConfig] = None,
        rng: Optional[RngRegistry] = None,
    ):
        self.env = env
        self.network = network
        self.costs = costs
        self.config = config or SharedLogConfig()
        self.orderer_nodes = orderer_nodes
        self.raft = RaftGroup(env, orderer_nodes, network, costs,
                              RaftConfig(batch_window=0.002, max_batch=256),
                              rng)
        self.subscribers: list[str] = []
        # Local block streams for co-located consumers/tests.
        self.block_streams: list[Store] = []
        self.blocks_cut = 0
        self.items_ordered = 0
        self._cut_queue: list[tuple[Any, int]] = []
        self._block_number = 0
        env.process(self._cutter(), name="orderer-cutter")

    # -- producers ------------------------------------------------------------

    def append(self, item: Any, size: int = 256) -> Event:
        """Order ``item``; the event fires when it is sequenced (not yet
        delivered)."""
        return self.raft.propose(item, size)

    # -- consumers ---------------------------------------------------------------

    def subscribe_node(self, node_name: str) -> None:
        """Deliver future blocks to ``node_name`` via 'deliver' messages."""
        self.subscribers.append(node_name)

    def subscribe_local(self) -> Store:
        """In-process block stream (no network hop); used by tests."""
        stream = Store(self.env)
        self.block_streams.append(stream)
        return stream

    # -- block cutting -------------------------------------------------------------

    def _cutter(self):
        """Consume the ordered stream; cut blocks by count or timeout.

        A single consumer appends to the pending batch; a cancellable
        timer per batch enforces the block timeout.  Cutting by count
        first cancels that batch's timer.
        """
        leader_name = self.orderer_nodes[0].name
        applied = self.raft.replicas[leader_name].applied
        self._pending: list[Any] = []
        self._cut_timer = None
        while True:
            _index, item = yield applied.get()
            self._pending.append(item)
            self.items_ordered += 1
            if len(self._pending) == 1:
                # A Timeout, not env.after(): a count cut cancels it.
                timer = self.env.timeout(self.config.block_timeout)
                timer.callbacks.append(self._timeout_cut)
                self._cut_timer = timer
            if len(self._pending) >= self.config.block_max_items:
                self._cut_pending()

    def _timeout_cut(self, _timer) -> None:
        if self._pending:
            self._cut_pending()

    def _cut_pending(self) -> None:
        timer, self._cut_timer = self._cut_timer, None
        if timer is not None:
            timer.cancel()
        batch, self._pending = self._pending, []
        self._cut(batch)

    def _cut(self, items: list[Any]) -> None:
        self.blocks_cut += 1
        block = {"number": self._block_number, "items": list(items)}
        self._block_number += 1
        size = 256 + sum(getattr(i, "wire_size", 512) for i in items)
        leader = self.orderer_nodes[0].name
        for stream in self.block_streams:
            stream.put(block)
        for subscriber in self.subscribers:
            self.network.send(Message(
                src=leader, dst=subscriber, kind="deliver",
                payload=block, size=size))
