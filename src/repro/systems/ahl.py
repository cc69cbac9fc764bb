"""AHL (Attested HyperLedger) system model: sharded permissioned blockchain.

Dang et al.'s design, summarized in the paper's Section 5.5: trusted
hardware (TEE attestation) lets shards stay small while preserving the
Byzantine-fraction assumption; each shard is a Fabric-v0.6-style PBFT
cluster executing serially; cross-shard transactions go through a 2PC
coordinator implemented as a *BFT-replicated state machine* (a dedicated
reference committee); shards are periodically re-formed to defeat
adaptive adversaries, pausing transaction processing (the paper measures
~30% throughput loss from reconfiguration).

Each shard's serial PBFT execute pipeline is modelled as a calibrated
serialized resource (AHL reports O(100) tps per small PBFT shard);
cross-shard coordination runs the real 2PC chain of
:mod:`repro.sharding.twopc` through its BFT coordinator, whose every
step is a round of a PBFT reference committee.
"""

from __future__ import annotations

from typing import Optional

from ..concurrency.serial import SerialExecutor
from ..consensus.pbft import PbftConfig, PbftGroup
from ..sharding.formation import ReconfigurationSchedule, ShardFormation
from ..sharding.partitioner import HashPartitioner
from ..sharding.twopc import BftCoordinator, Vote
from ..sim.kernel import Environment, Event, subscribe
from ..sim.resources import Resource
from ..txn.state import VersionedStore
from ..txn.transaction import AbortReason, OpType
from .base import (QueryRoundTrip, RoundTrip, SystemConfig,
                   TransactionalSystem)

__all__ = ["AhlSystem"]


class _ShardExec:
    """One serial slot of a shard's PBFT execute pipeline, as a flat chain.

    Pipeline grant -> reconfiguration-pause gate (checked while the slot
    is held, so an epoch boundary really does stop the shard) -> the
    calibrated execute/commit cost -> release.  ``done`` resolves inline
    (:meth:`Event._resolve`) at the release position: the caller
    continues inside the service timer's continuation, right after the
    next waiter was granted, with no further trip through the heap.
    """

    __slots__ = ("system", "shard", "cost", "value", "done", "_req")

    def __init__(self, system: "AhlSystem", shard: int, cost: float,
                 value=None):
        self.system = system
        self.shard = shard
        self.cost = cost
        self.value = value
        self.done = Event(system.env)
        self._req = None

    def start(self, scheduled: bool = False) -> Event:
        if scheduled:
            self.system.env._schedule_call(self._begin, None)
        else:
            self._begin(None)
        return self.done

    def _begin(self, _arg) -> None:
        req = self._req = self.system.shard_pipelines[self.shard].request()
        subscribe(req, self._granted)

    def _granted(self, _ev: Event) -> None:
        system = self.system
        if system._paused:
            subscribe(system._resume_event(), self._unpaused)
        else:
            self._unpaused(None)

    def _unpaused(self, _ev: Event) -> None:
        self.system.env.after(self.cost, self._served)

    def _served(self, _arg) -> None:
        self.system.shard_pipelines[self.shard].release(self._req)
        self.done._resolve(self.value)


class _ShardExecLA(_ShardExec):
    """Lookahead-mode shard exec: the same pipeline chain plus the two
    hub<->shard network hops the default model elides.

    One ``net_latency`` request hop before the pipeline and one
    completion hop after release — physically real edges (the client
    gateway and the shard are distinct machines) that make the shard a
    *logical process* reachable only through the network, which is what
    licenses conservative parallel execution: with every edge charged,
    ``Network.min_delay`` bounds how far hub and shard may diverge.
    This single-heap form is the equivalence reference the parallel
    kernel (:class:`repro.sim.parallel.ShardCoupler`) must match
    byte-for-byte.
    """

    __slots__ = ()

    def _begin(self, _arg) -> None:
        self.system.env.after(self.system.costs.net_latency, super()._begin)

    def _served(self, _arg) -> None:
        self.system.shard_pipelines[self.shard].release(self._req)
        self.system.env.after(self.system.costs.net_latency, self._completed)

    def _completed(self, _arg) -> None:
        # Resolve in the priority-2 rendezvous slot, not inline: this hop
        # timer's seq dates from one lookahead ago, so its position among
        # other events at this instant is an accident of creation time —
        # and the parallel kernel, injecting the same completion from a
        # barrier, could never reproduce it.  Both builds resolving at
        # priority 2 makes tied instants order identically.
        self.system.env._schedule_call_last(self._finish, None)

    def _finish(self, _arg) -> None:
        self.done._resolve(self.value)


class _AhlTxn(RoundTrip):
    """One AHL transaction.

    Service stages: single-shard transactions take one serial slot of
    their shard's execute pipeline; cross-shard transactions run
    BFT-2PC through the reference committee (whose participant legs
    are :class:`_ShardExec` chains — no Process per participant).
    There is no reply hop: the last stage settles ``done``.
    """

    __slots__ = ()

    def request_size(self) -> int:
        return 256 + self.txn.payload_size

    def _arrived(self, _arg) -> None:
        system = self.system
        txn = self.txn
        shards = sorted({system.partitioner.shard_of(op.key)
                         for op in txn.ops})
        if len(shards) == 1:
            subscribe(system.shard_exec_event(shards[0]), self._executed)
            return
        # Cross-shard: BFT-2PC through the reference committee.
        system.cross_shard_txns += 1
        participants = [_ShardParticipant(system, s) for s in shards]
        ev = system.coordinator.run(txn.txn_id, participants,
                                    {"txn": txn})
        ev.callbacks.append(self._decided)

    def _executed(self, _ev: Event) -> None:
        system = self.system
        system._version += 1
        system.executor.execute(self.txn, system._version)
        self._finish(None)

    def _decided(self, ev: Event) -> None:
        if ev._value.value == "commit":
            self._executed(ev)
            return
        self.txn.mark_aborted(AbortReason.COORDINATOR_ABORT)
        self._finish(None)


class _ShardParticipant:
    """Adapter: one shard acting as a 2PC participant (flat chains)."""

    def __init__(self, system: "AhlSystem", shard: int):
        self.system = system
        self.shard = shard

    def prepare(self, txn_id: int, payload: dict) -> Event:
        return self.system.shard_exec_event(self.shard, value=Vote.YES,
                                            scheduled=True)

    def finalize(self, txn_id: int, decision) -> Event:
        return self.system.shard_exec_event(self.shard, commit=True,
                                            value=True, scheduled=True)


class _Query(QueryRoundTrip):
    """One read-only query: the client round trip as two propagation
    delays with no NIC egress, then the reads (Section 2.1)."""

    __slots__ = ()

    def _begin(self, _arg) -> None:
        system = self.system
        self.txn.submitted_at = system.env.now
        system.env.after(2 * system.costs.net_latency, self._finish)

    def _finish(self, _arg) -> None:
        for op in self.txn.ops:
            if op.op_type is OpType.READ:
                self.system.state.get(op.key)
        super()._finish(_arg)


class AhlSystem(TransactionalSystem):
    name = "ahl"
    update_chain = _AhlTxn
    query_chain = _Query

    NODES_PER_SHARD = 3  # Fig. 14 setup (TEEs allow small shards)

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None,
                 periodic_reconfig: bool = True,
                 shard_lookahead: bool = False, parallel: bool = False):
        """``shard_lookahead`` charges the hub<->shard network hops
        (one ``net_latency`` each way per shard slot), making each shard
        a network-isolated logical process; ``parallel`` additionally
        runs each shard's pipeline in its own worker process behind a
        :class:`~repro.sim.parallel.ShardCoupler` (implies
        ``shard_lookahead`` — the hop model is what makes the two
        execution strategies equivalent).  Both default off: the seeded
        fingerprints pin the default (hopless, single-heap) model.
        """
        super().__init__(env, config)
        if self.config.num_nodes % self.NODES_PER_SHARD:
            raise ValueError("num_nodes must be a multiple of 3 (Fig. 14)")
        self.num_shards = self.config.num_nodes // self.NODES_PER_SHARD
        self.partitioner = HashPartitioner(self.num_shards)
        self.state = VersionedStore()
        self.executor = SerialExecutor(self.state)
        self._version = 0
        # Per-shard serial PBFT execute pipeline (calibrated).
        self._shard_nodes = self._new_nodes(self.config.num_nodes, "ahl")
        self.shard_pipelines = [Resource(env, 1)
                                for _ in range(self.num_shards)]
        self._txn_cost = 1.0 / self.costs.ahl_shard_tps
        # Reference committee: BFT-replicated 2PC coordinator.
        committee = self._new_nodes(4, "ahl-ref")
        self.committee = PbftGroup(
            env, committee, self.network, self.costs,
            PbftConfig(batch_window=0.02, max_batch=64,
                       message_kind="pbft:ahl-ref"),
            rng=self.rng)
        self.coordinator = BftCoordinator(env, self.committee)
        self.formation = ShardFormation(num_shards=self.num_shards)
        self.periodic_reconfig = periodic_reconfig
        self.reconfig = ReconfigurationSchedule(
            period=self.costs.ahl_reconfig_period,
            pause=self.costs.ahl_reconfig_pause)
        self._paused = False
        self._resume_signal: Optional[Event] = None
        if periodic_reconfig:
            self.spawn(self._reconfig_loop(), name="ahl-reconfig")
        self.cross_shard_txns = 0
        self.shard_lookahead = shard_lookahead or parallel
        self.coupler = None
        if parallel:
            from ..sim.parallel import ShardCoupler
            self.coupler = ShardCoupler(
                env, self.num_shards, window=self.network.min_delay,
                period=self.reconfig.period, pause=self.reconfig.pause,
                periodic_reconfig=periodic_reconfig)

    # -- reconfiguration epochs ---------------------------------------------------

    def _reconfig_loop(self):
        while True:
            yield self.env.timeout(self.reconfig.period - self.reconfig.pause)
            # Epoch boundary: shards re-form; processing pauses.
            self._paused = True
            self.formation.reconfigure(
                [n.name for n in self._shard_nodes])
            yield self.env.timeout(self.reconfig.pause)
            self._paused = False
            signal, self._resume_signal = self._resume_signal, None
            if signal is not None and not signal.triggered:
                signal.succeed()

    def _resume_event(self) -> Event:
        """The event the active reconfiguration pause resolves at its end."""
        if self._resume_signal is None:
            self._resume_signal = self.env.event()
        return self._resume_signal

    # -- shard execution ------------------------------------------------------------

    def shard_exec_event(self, shard: int, commit: bool = False,
                         value=None, scheduled: bool = False) -> Event:
        """One serial slot of the shard's PBFT execute pipeline (flat).

        The reconfiguration pause stalls the *server* (checked while the
        slot is held), so an epoch boundary really does stop the shard —
        queued work cannot ride through it.
        """
        cost = self._txn_cost * (0.3 if commit else 1.0)
        if self.coupler is not None:
            return self.coupler.exec_event(shard, cost, value=value,
                                           scheduled=scheduled)
        if self.shard_lookahead:
            return _ShardExecLA(self, shard, cost, value).start(scheduled)
        return _ShardExec(self, shard, cost, value).start(scheduled)
