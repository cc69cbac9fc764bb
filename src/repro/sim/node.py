"""Simulated cluster node: CPU cores, egress NIC, disk, mailbox.

A node is a passive container of resources; protocol roles (Raft replica,
Fabric peer, ...) are processes that run "on" a node by consuming its
resources and reading its mailbox.
"""

from __future__ import annotations

from .costs import CostModel, DEFAULT_COSTS
from .kernel import Environment, Event
from .network import Message
from .resources import Resource, Store

__all__ = ["Node"]


class Node:
    """A machine in the simulated cluster (paper: Xeon E5-1650, 32 GB)."""

    def __init__(
        self,
        env: Environment,
        name: str,
        cores: int = 6,
        costs: CostModel = DEFAULT_COSTS,
        nic_capacity: int = 1,
    ):
        self.env = env
        self.name = name
        self.costs = costs
        self.cpu = Resource(env, capacity=cores)
        # nic_capacity > 1 models an aggregate of machines (e.g. the pool
        # of benchmark-client hosts the paper drives load from).
        self.nic_out = Resource(env, capacity=nic_capacity)
        self.disk = Resource(env, capacity=1)
        self.mailbox: Store = Store(env)
        self._subscribers: dict[str, Store] = {}
        self.crashed = False
        # TrueTime-style clock error bound above the fleet baseline;
        # Spanner's commit-wait stretches by this much on skewed leaders.
        self.clock_skew = 0.0
        # Callbacks invoked by recover() after the inboxes are reset —
        # protocol roles (replicas) register here to re-arm timers and
        # reset volatile role state on restart.
        self.on_recover: list = []

    # -- messaging --------------------------------------------------------

    def enqueue(self, msg: Message) -> None:
        """Called by the network on delivery; routes to kind subscribers."""
        box = self._subscribers.get(msg.kind)
        if box is not None:
            box.put(msg)
        else:
            self.mailbox.put(msg)

    def subscribe(self, kind: str) -> Store:
        """Return a dedicated inbox receiving only messages of ``kind``."""
        box = self._subscribers.get(kind)
        if box is None:
            box = Store(self.env)
            self._subscribers[kind] = box
        return box

    def receive(self) -> Event:
        """Event yielding the next unrouted message."""
        return self.mailbox.get()

    # -- resource helpers -------------------------------------------------

    def compute(self, service_time: float) -> Event:
        """Occupy one CPU core for ``service_time`` (flat fast path).

        Returns a single event — ``yield node.compute(t)``.  A chain
        stage with one waiter calls ``node.cpu.serve_then(t, then)``
        and builds no event.
        """
        return self.cpu.serve_event(service_time)

    def disk_write(self, service_time: float) -> Event:
        """Occupy the disk for ``service_time`` (flat fast path)."""
        return self.disk.serve_event(service_time)

    # -- failure injection ------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: in-flight and future traffic to/from is dropped."""
        self.crashed = True

    def recover(self) -> None:
        """Restart after a crash.

        Pre-crash in-flight state is gone: the mailbox and every
        subscription store are cleared in place (parked getters survive —
        see :meth:`Store.clear` — so perpetual receiver chains re-arm on
        the next delivery).  Registered ``on_recover`` hooks then run so
        protocol roles can reset volatile state and replay durable logs.
        """
        self.crashed = False
        self.mailbox.clear()
        for box in self._subscribers.values():
            box.clear()
        for hook in self.on_recover:
            hook()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "crashed" if self.crashed else "up"
        return f"<Node {self.name} ({state})>"
