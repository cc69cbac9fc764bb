"""Compile a :class:`~repro.chaos.scenario.Scenario` onto kernel timers.

The injector is the bridge between the declarative schedule and the
simulation primitives: partitions and link degradation land on
:class:`repro.sim.network.Network`, crash-restart on
:class:`repro.sim.node.Node` plus — when the victim hosts the system's
storage engine — a *real* WAL replay through
:meth:`repro.storage.engine.StorageEngine.recover`, byzantine windows on
the PBFT-family replica toggles, clock skew on ``Node.clock_skew``.

Role selectors (``"leader"``, ``"engine-host"``) resolve at *fire* time,
so a ``LeaderChurn`` step always kills whoever currently leads, not
whoever led at arm time.

Every action appends a line to :attr:`ChaosInjector.log` stamped with the
simulated time — the injection log is part of the chaos fingerprint, so a
scenario that fires differently across two same-seed runs fails the
determinism gate loudly.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.kernel import Environment
from ..sim.network import Network, PartitionHandle
from ..sim.node import Node
from .scenario import (AsymPartition, Censor, ClockSkew, CrashRestart,
                       Equivocate, GrayNode, LeaderChurn, Partition,
                       Scenario, SilentLeader, Step)

__all__ = ["ChaosInjector", "discover_groups"]

_BYZANTINE_STEPS = (Equivocate, Censor, SilentLeader)
_CRASH_STEPS = (CrashRestart, LeaderChurn)


def discover_groups(system: Any) -> list:
    """Collect every consensus group a system object exposes.

    Dedicated models and hybrids hang their groups off well-known
    attributes: ``raft`` (etcd), ``group`` (quorum), ``backend``
    (hybrids), ``committee`` (AHL's PBFT reference committee),
    ``cluster.groups`` (TiKV's multi-raft regions).
    """
    groups: list = []
    for attr in ("raft", "group", "backend", "committee"):
        g = getattr(system, attr, None)
        if g is not None and hasattr(g, "replicas"):
            groups.append(g)
    cluster = getattr(system, "cluster", None)
    for seq_owner in (system, cluster):
        if seq_owner is None:
            continue
        for g in getattr(seq_owner, "groups", ()) or ():
            if hasattr(g, "replicas"):
                groups.append(g)
    return groups


class ChaosInjector:
    """Arms one scenario against one simulated cluster.

    Constructed explicitly (tests drive bare consensus groups without a
    full system) or via :meth:`for_system`, which discovers the network,
    nodes, consensus groups and storage engine from a
    :class:`~repro.systems.base.TransactionalSystem`.
    """

    def __init__(
        self,
        env: Environment,
        scenario: Scenario,
        network: Optional[Network] = None,
        nodes: tuple[Node, ...] = (),
        groups: tuple = (),
        engine: Any = None,
        engine_host: Optional[Node] = None,
        costs: Any = None,
    ):
        self.env = env
        self.scenario = scenario
        self.network = network
        self.nodes = tuple(nodes)
        self.groups = tuple(groups)
        self.engine = engine
        self.engine_host = engine_host
        self.costs = costs or (network.costs if network is not None else None)
        self.log: list[str] = []
        self.armed = False
        # restart bookkeeping: replicas whose byzantine toggles a window
        # flipped on, so the off-edge resets the same replica even if the
        # view has moved past it meanwhile.
        self._byz_owners: dict[int, Any] = {}

    @classmethod
    def for_system(cls, system: Any, scenario: Scenario) -> "ChaosInjector":
        engine = system.engine
        nodes = tuple(system.nodes)
        host = None
        if engine is not None and nodes:
            # Dedicated models charge engine work on their first server
            # (etcd/quorum block producer, TiKV store 0).
            servers = getattr(system, "servers", None)
            host = servers[0] if servers else nodes[0]
        return cls(system.env, scenario, network=system.network,
                   nodes=nodes, groups=tuple(discover_groups(system)),
                   engine=engine, engine_host=host, costs=system.costs)

    # -- validation / arming ----------------------------------------------

    def _validate(self) -> None:
        steps = self.scenario.steps
        if any(isinstance(s, (Partition, GrayNode)) for s in steps) \
                and self.network is None:
            raise ValueError("scenario has network steps but no network")
        if any(isinstance(s, _CRASH_STEPS) for s in steps):
            if not self.nodes:
                raise ValueError("scenario has crash steps but no nodes")
            if self.engine is not None and self.engine.wal is None:
                raise ValueError(
                    "crash-restart with a storage engine requires a WAL "
                    "(SystemConfig.extras['wal'] = True) — without one "
                    "there is nothing to recover from")
        if any(isinstance(s, _BYZANTINE_STEPS) for s in steps) \
                and not any(hasattr(g, "primary") for g in self.groups):
            raise ValueError("byzantine steps need a BFT-family consensus "
                             "group (PBFT/IBFT)")
        if any(isinstance(s, LeaderChurn) for s in steps) \
                and not self.groups:
            raise ValueError("LeaderChurn needs a consensus group to "
                             "resolve the current leader")

    def arm(self) -> None:
        """Validate and schedule every step onto kernel timers.

        Must run **before** ``system.load()``: crash scenarios disable
        WAL checkpoint truncation so the genesis records stay replayable
        for the whole run (a real system would recover the checkpoint
        image first; the simulated engines model recovery as full-log
        replay instead).
        """
        if self.armed:
            raise RuntimeError("injector already armed")
        self._validate()
        if (self.engine is not None and self.engine.wal is not None
                and any(isinstance(s, _CRASH_STEPS)
                        for s in self.scenario.steps)):
            self.engine.wal_checkpoint_bytes = None
        for step in self.scenario.steps:
            self._arm_step(step)
        self.armed = True

    def _at(self, t: float, fn: Callable[[], None]) -> None:
        delay = t - self.env.now
        self.env.after(delay if delay > 0 else 0.0, lambda _arg: fn())

    def _note(self, text: str) -> None:
        self.log.append(f"{self.env.now:.6f} {text}")

    # -- node / role resolution -------------------------------------------

    def _leader_node(self) -> Optional[Node]:
        for group in self.groups:
            leader = getattr(group, "leader", None)
            if leader is None:
                primary = getattr(group, "primary", None)
                leader = primary
            if leader is not None:
                return leader.node
        return None

    def _primary_replica(self):
        for group in self.groups:
            if hasattr(group, "primary"):
                primary = group.primary
                if primary is not None:
                    return primary
        return None

    def _resolve(self, selector: str) -> Optional[Node]:
        if selector == "leader":
            return self._leader_node()
        if selector == "engine-host":
            return self.engine_host
        if self.network is not None:
            return self.network.nodes[selector]
        for node in self.nodes:
            if node.name == selector:
                return node
        raise KeyError(f"unknown node {selector!r}")

    # -- step compilation --------------------------------------------------

    def _arm_step(self, step: Step) -> None:
        if isinstance(step, Partition):        # covers AsymPartition
            self._at(step.at, lambda: self._start_partition(step))
        elif isinstance(step, GrayNode):
            self._at(step.at, lambda: self._start_gray(step))
        elif isinstance(step, CrashRestart):
            self._at(step.at, lambda: self._crash_step(step))
        elif isinstance(step, LeaderChurn):
            self._at(step.at, lambda: self._churn_tick(step))
        elif isinstance(step, ClockSkew):
            self._at(step.at, lambda: self._start_skew(step))
        elif isinstance(step, _BYZANTINE_STEPS):
            self._at(step.at, lambda: self._start_byzantine(step))
        else:  # pragma: no cover - new step types must be compiled here
            raise TypeError(f"unknown step type {type(step).__name__}")

    # partitions

    def _start_partition(self, step: Partition) -> None:
        symmetric = not isinstance(step, AsymPartition)
        handle = self.network.partition(set(step.group_a), set(step.group_b),
                                        symmetric=symmetric)
        arrow = "<->" if symmetric else "->"
        self._note(f"partition {sorted(step.group_a)} {arrow} "
                   f"{sorted(step.group_b)}")
        if step.until is not None:
            self._at(step.until, lambda: self._heal_partition(handle))

    def _heal_partition(self, handle: PartitionHandle) -> None:
        self.network.heal(handle)
        self._note(f"heal {sorted(handle.group_a)} | "
                   f"{sorted(handle.group_b)}")

    # gray / slow node

    def _gray_links(self, name: str):
        for other in self.network.nodes:
            if other != name:
                yield (name, other)
                yield (other, name)

    def _start_gray(self, step: GrayNode) -> None:
        node = self._resolve(step.node)
        for src, dst in self._gray_links(node.name):
            self.network.set_link_delay(src, dst, step.extra_delay)
            if step.drop_rate:
                self.network.set_drop_rate(src, dst, step.drop_rate)
        self._note(f"gray {node.name} +{step.extra_delay:g}s "
                   f"drop={step.drop_rate:g}")
        if step.until is not None:
            self._at(step.until, lambda: self._end_gray(step, node))

    def _end_gray(self, step: GrayNode, node: Node) -> None:
        for src, dst in self._gray_links(node.name):
            self.network.set_link_delay(src, dst, 0.0)
            if step.drop_rate:
                self.network.set_drop_rate(src, dst, 0.0)
        self._note(f"ungray {node.name}")

    # crash / restart — the recovery loop

    def _crash_step(self, step: CrashRestart) -> None:
        node = self._resolve(step.node)
        if node is None or node.crashed:
            self._note(f"crash {step.node}: no-op (unresolved or down)")
            return
        self._crash(node)
        self._at(step.restart_at, lambda: self._restart(node))

    def _crash(self, node: Node) -> None:
        node.crash()
        if self.engine is not None and node is self.engine_host:
            self.engine.crash()
            self._note(f"crash {node.name} (engine host: unsynced WAL "
                       "tail dropped)")
        else:
            self._note(f"crash {node.name}")

    def _restart(self, node: Node) -> None:
        if not node.crashed:
            return
        node.recover()
        if self.engine is not None and node is self.engine_host:
            rec = self.engine.recover()
            replay = self.costs.wal_replay_time(rec.records,
                                                rec.bytes_replayed)
            node.disk.serve_then(replay, lambda _arg: None)
            self._note(f"restart {node.name}: replayed {rec.records} WAL "
                       f"records ({rec.bytes_replayed} B) in {replay:.6f}s")
        else:
            self._note(f"restart {node.name}")

    # leader churn

    def _churn_tick(self, step: LeaderChurn) -> None:
        if self.env.now >= step.until:
            self._note("leader churn window closed")
            return
        victim = self._leader_node()
        if victim is not None and not victim.crashed:
            self._crash(victim)
            self._at(self.env.now + step.downtime,
                     lambda: self._restart(victim))
        else:
            self._note("leader churn tick: no live leader to kill")
        self._at(self.env.now + step.period, lambda: self._churn_tick(step))

    # clock skew

    def _start_skew(self, step: ClockSkew) -> None:
        node = self._resolve(step.node)
        node.clock_skew = step.skew
        self._note(f"clock skew {node.name} +{step.skew:g}s")
        if step.until is not None:
            self._at(step.until, lambda: self._end_skew(node))

    def _end_skew(self, node: Node) -> None:
        node.clock_skew = 0.0
        self._note(f"clock skew {node.name} cleared")

    # byzantine windows (BFT-family primaries)

    def _start_byzantine(self, step: Step) -> None:
        replica = self._primary_replica()
        if replica is None:
            self._note(f"{type(step).__name__}: no live primary, skipped")
            return
        if isinstance(step, Equivocate):
            replica.byzantine_equivocator = True
            self._note(f"equivocate on at primary {replica.name}")
        elif isinstance(step, Censor):
            replica.censor_predicate = _censor_predicate(step.match)
            self._note(f"censor {step.match!r} on at primary "
                       f"{replica.name}")
        else:  # SilentLeader
            replica.silent = True
            self._note(f"primary {replica.name} silenced")
        self._byz_owners[id(step)] = replica
        if step.until is not None:
            self._at(step.until, lambda: self._end_byzantine(step))

    def _end_byzantine(self, step: Step) -> None:
        replica = self._byz_owners.pop(id(step), None)
        if replica is None:
            return
        if isinstance(step, Equivocate):
            replica.byzantine_equivocator = False
            self._note(f"equivocate off at {replica.name}")
        elif isinstance(step, Censor):
            replica.censor_predicate = None
            released = replica.release_stranded()
            self._note(f"censor off at {replica.name} "
                       f"({replica.censored_count} censored, "
                       f"{released} released)")
        else:
            replica.silent = False
            released = replica.release_stranded()
            self._note(f"{replica.name} unsilenced "
                       f"({replica.silenced_count} swallowed, "
                       f"{released} released)")


def _censor_predicate(match: str) -> Callable[[Any], bool]:
    """Build the item predicate a :class:`Censor` step installs.

    Items are transactions or whole blocks of transactions (quorum
    proposes ``list[Transaction]``); a block is censored if any of its
    transactions touches a matching key.  ``match=""`` censors
    everything.
    """

    def predicate(item: Any) -> bool:
        txns = item if isinstance(item, list) else [item]
        for txn in txns:
            for op in getattr(txn, "ops", ()) or ():
                if match in op.key:
                    return True
        return not match

    return predicate
