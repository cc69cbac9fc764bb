"""Simulated message-passing network.

Models a switched LAN: each node owns an egress NIC (a serial resource, so a
leader broadcasting to N-1 followers pays per-follower serialization — the
O(N) leader cost the paper attributes to consensus), messages then spend a
propagation delay in flight and land in the destination mailbox.

Supports fault injection: network partitions (symmetric or one-way,
individually healable via :class:`PartitionHandle`), per-link drops,
per-link extra delay (gray/slow nodes), and crashed destinations silently
discarding traffic.  The chaos scenario DSL (:mod:`repro.chaos`) compiles
its partition/gray-node steps onto these primitives.
"""

from __future__ import annotations

from typing import Any, Optional

from .costs import CostModel, DEFAULT_COSTS
from .kernel import Environment
from .rng import RngRegistry

__all__ = ["Message", "Network", "PartitionHandle"]

class Message:
    """A network message between simulated nodes."""

    __slots__ = ("src", "dst", "kind", "payload", "size")

    def __init__(self, src: str, dst: str, kind: str, payload: Any = None,
                 size: int = 256):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size = size


class PartitionHandle:
    """One active partition, healable independently of any other.

    Returned by :meth:`Network.partition`; overlapping scenario windows
    each hold their own handle, so healing one window never tears down a
    partition another window still owns.  ``symmetric=False`` severs only
    the ``group_a -> group_b`` direction (an asymmetric partition: A's
    traffic to B is lost while B can still reach A).
    """

    __slots__ = ("group_a", "group_b", "symmetric", "active")

    def __init__(self, group_a: frozenset, group_b: frozenset,
                 symmetric: bool = True):
        self.group_a = group_a
        self.group_b = group_b
        self.symmetric = symmetric
        self.active = True

    def blocks(self, src: str, dst: str) -> bool:
        if src in self.group_a and dst in self.group_b:
            return True
        return (self.symmetric
                and src in self.group_b and dst in self.group_a)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        arrow = "<->" if self.symmetric else "->"
        state = "" if self.active else " (healed)"
        return (f"<Partition {sorted(self.group_a)} {arrow} "
                f"{sorted(self.group_b)}{state}>")


class _Delivery:
    """One in-flight message, driven as a flat callback chain.

    Stages mirror the old ``_deliver`` coroutine hop for hop — NIC
    egress (``serve_then``), drop checks, propagation timer, enqueue —
    issuing the identical schedule sequence, so event ordering is
    byte-identical to the process-per-message form (the retired
    delivery process's completion event carried no callbacks, so losing
    it is unobservable).
    """

    __slots__ = ("net", "msg", "src", "dst")

    def __init__(self, net: "Network", msg: Message):
        self.net = net
        self.msg = msg

    def begin(self, _arg: Any) -> None:
        net, msg = self.net, self.msg
        src = net.nodes.get(msg.src)
        dst = net.nodes.get(msg.dst)
        if src is None or dst is None:
            raise KeyError(f"unknown endpoint in {msg.src!r}->{msg.dst!r}")
        self.src = src
        self.dst = dst
        net.messages_sent += 1
        net.bytes_sent += msg.size
        # Egress: sender CPU overhead + wire serialization, serialized
        # through the source NIC.
        cost = net.costs.net_send_overhead + net.costs.transfer_time(msg.size)
        src.nic_out.serve_then(cost, self._egress_done)

    def _egress_done(self, _arg) -> None:
        net, msg = self.net, self.msg
        if self.src.crashed or net._severed(msg.src, msg.dst):
            net.messages_dropped += 1
            return
        rate = net._drop_rate.get((msg.src, msg.dst), 0.0)
        if rate > 0 and net.rng.random() < rate:
            net.messages_dropped += 1
            return
        delay = net.costs.net_latency
        if net.jitter > 0:
            delay += net.rng.expovariate(1.0 / net.jitter)
        if net._link_delay:  # gray/slow link (chaos); empty on clean runs
            delay += net._link_delay.get((msg.src, msg.dst), 0.0)
        net.env.after(delay, self._arrive)

    def _arrive(self, _arg) -> None:
        if self.dst.crashed:
            self.net.messages_dropped += 1
            return
        self.dst.enqueue(self.msg)


class Network:
    """Connects :class:`repro.sim.node.Node` objects."""

    def __init__(
        self,
        env: Environment,
        costs: CostModel = DEFAULT_COSTS,
        rng: Optional[RngRegistry] = None,
        jitter: float = 0.0,
    ):
        self.env = env
        self.costs = costs
        self.rng = (rng or RngRegistry(0)).stream("network")
        self.jitter = jitter
        self.nodes: dict[str, "Any"] = {}
        self._partitions: list[PartitionHandle] = []
        self._drop_rate: dict[tuple[str, str], float] = {}
        self._link_delay: dict[tuple[str, str], float] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    @property
    def min_delay(self) -> float:
        """Lower bound on any in-flight delivery delay, in seconds.

        Every delivery pays at least ``costs.net_latency`` on the wire;
        jitter and per-link gray delays only *add* to it.  This is the
        conservative-lookahead authority for parallel execution
        (:mod:`repro.sim.parallel`): a message sent at ``t`` cannot be
        seen by its receiver before ``t + min_delay``, so logical
        processes may safely advance ``min_delay`` past the last barrier
        without waiting for each other.
        """
        return self.costs.net_latency

    # -- topology ---------------------------------------------------------

    def attach(self, node: Any) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def partition(self, group_a: set[str], group_b: set[str],
                  symmetric: bool = True) -> PartitionHandle:
        """Disconnect ``group_a`` from ``group_b``.

        Returns a :class:`PartitionHandle` that can be passed to
        :meth:`heal` to remove just this partition; with
        ``symmetric=False`` only ``group_a -> group_b`` traffic is lost.
        """
        handle = PartitionHandle(frozenset(group_a), frozenset(group_b),
                                 symmetric=symmetric)
        self._partitions.append(handle)
        return handle

    def heal(self, handle: Optional[PartitionHandle] = None) -> None:
        """Remove one partition (by handle) or, with no argument, all."""
        if handle is None:
            for h in self._partitions:
                h.active = False
            self._partitions.clear()
            return
        handle.active = False
        try:
            self._partitions.remove(handle)
        except ValueError:
            pass  # already healed (e.g. by a prior heal-all)

    def set_drop_rate(self, src: str, dst: str, rate: float) -> None:
        self._drop_rate[(src, dst)] = rate

    def set_link_delay(self, src: str, dst: str, extra: float) -> None:
        """Add ``extra`` seconds of one-way delay on the ``src->dst`` link.

        The gray/slow-node primitive: a non-zero extra delay makes the
        link (and hence the node behind it) slow without severing it.
        ``extra=0`` removes the entry so healed links leave no residue.
        """
        if extra:
            self._link_delay[(src, dst)] = extra
        else:
            self._link_delay.pop((src, dst), None)

    def _severed(self, src: str, dst: str) -> bool:
        for handle in self._partitions:
            if handle.blocks(src, dst):
                return True
        return False

    # -- sending ----------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Fire-and-forget asynchronous send.

        Delivery is a flat callback chain (:class:`_Delivery`), not a
        coroutine: the bootstrap callback below lands at the same
        scheduler position a per-message delivery *process* used to
        bootstrap at, then NIC egress, propagation, and enqueue are
        plain heap continuations (``serve_then``, ``after``) — one
        small object per message instead of a generator resumed
        through the process trampoline at each hop.
        """
        self.env._schedule_call(_Delivery(self, msg).begin, None)

    def broadcast(self, src: str, dsts: list[str], kind: str, payload: Any,
                  size: int = 256) -> None:
        """Send the same payload to every destination (separate messages)."""
        for dst in dsts:
            if dst != src:
                self.send(Message(src=src, dst=dst, kind=kind,
                                  payload=payload, size=size))
