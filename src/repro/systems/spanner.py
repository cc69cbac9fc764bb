"""Spanner-like system model: sharded NewSQL with pessimistic locking.

For the Figure 14 sharding study: data is range/hash partitioned over
shards of 3 nodes, each shard a Paxos group; read-write transactions take
strict two-phase locks and commit through Paxos, with cross-shard
transactions coordinated by trusted 2PC plus a commit-wait.

The cross-shard commit is the real 2PC shape: the coordinator fans the
prepare out to every participant shard **in parallel** (each a Paxos
round at that shard), joins the votes with ``env.all_of``, replicates the
commit decision at the coordinator shard, then fans the commit record
out to the other participants — again in parallel.  All of it runs as
flat callback chains (:class:`_PaxosWrite` per consensus round, a
``env.all_of`` join per fan-out), no Process per
transaction or per participant.

The performance-relevant contrast with TiDB (Section 5.5): conflicting
transactions *contend for locks* under pessimistic concurrency control —
under a skewed workload they queue on hot keys for the full lock span —
whereas TiDB aborts instantly on conflict.  Hence Spanner trails TiDB as
shards scale.
"""

from __future__ import annotations

from typing import Optional

from ..concurrency.twopl import LockManager, LockMode
from ..sharding.partitioner import HashPartitioner
from ..sim.kernel import AllOf, Environment, Event, subscribe
from ..sim.resources import Resource
from ..txn.state import VersionedStore
from .base import (QueryRoundTrip, RoundTrip, SystemConfig,
                   TransactionalSystem)

__all__ = ["SpannerSystem"]


class _PaxosWrite:
    """One modelled Paxos consensus round at a shard, as a flat chain.

    Serialized log-pipeline slot at the shard leader -> NIC egress for
    the replication fan-out -> one LAN round trip.  ``start`` begins
    inline (no scheduled slot) at the caller's cascade position — the
    same place the old ``yield from _paxos_write`` entered the helper —
    and ``done`` is succeeded through the scheduler where the helper's
    final timeout resumed its caller.
    """

    __slots__ = ("system", "shard", "size", "done")

    def __init__(self, system: "SpannerSystem", shard: int, size: int):
        self.system = system
        self.shard = shard
        self.size = size
        self.done = Event(system.env)

    def start(self) -> Event:
        system = self.system
        leader = system.shard_leaders[self.shard]
        system.log_threads[leader.name].serve_then(
            system.costs.raft_propose + system.costs.raft_apply
            + system.costs.store_put,
            self._logged)
        return self.done

    def _logged(self, _arg) -> None:
        system = self.system
        leader = system.shard_leaders[self.shard]
        leader.nic_out.serve_then(
            2 * (system.costs.net_send_overhead
                 + system.costs.transfer_time(self.size)),
            self._sent)

    def _sent(self, _arg) -> None:
        self.system.env.after(
            2 * self.system.costs.net_latency, self._round_tripped)

    def _round_tripped(self, _arg) -> None:
        self.done.succeed(self.shard)


class _Txn(RoundTrip):
    """One strict-2PL read-write transaction.

    Service stages: coordinator CPU -> lock acquisition in key order
    (reads S, writes X), reads + logic, then the commit protocol — a
    single Paxos round for one-shard transactions, or the parallel 2PC
    chain (prepare fan-out -> vote join -> decision round -> commit
    fan-out) across shards — followed by the commit wait with locks
    still held.  There is no reply hop: ``done`` is succeeded through
    the scheduler in the same callback that releases the locks, at
    every exit exactly once (so queued lock waiters are granted before
    the client hears back).
    """

    __slots__ = ("held", "sorted_ops", "shards")

    def request_size(self) -> int:
        return 128 + self.txn.payload_size

    def _arrived(self, _arg) -> None:
        system = self.system
        coordinator_shard = system._shard_of(self.txn.ops[0].key)
        coordinator = system.shard_leaders[coordinator_shard]
        coordinator.cpu.serve_then(
            system.costs.spanner_request_cpu, self._coord_ready)

    # -- strict 2PL lock acquisition ---------------------------------------

    def _coord_ready(self, _arg) -> None:
        self.held = []
        self.sorted_ops = sorted(self.txn.ops, key=lambda o: o.key)
        self._next_lock()

    def _next_lock(self) -> None:
        if self._idx >= len(self.sorted_ops):
            self._read_and_execute()
            return
        system = self.system
        op = self.sorted_ops[self._idx]
        mode = (LockMode.EXCLUSIVE if op.is_write else LockMode.SHARED)
        req = system.locks.acquire(self.txn.txn_id, op.key, mode)
        subscribe(req, self._locked)

    def _locked(self, _ev: Event) -> None:
        self.held.append(self.sorted_ops[self._idx].key)
        self._idx += 1
        self._next_lock()

    # -- execution ---------------------------------------------------------

    def _read_and_execute(self) -> None:
        system = self.system
        txn = self.txn
        if not txn.derive_writes(system.state.read_inputs(txn)):
            self._finish()
            return
        write_set = txn.write_set
        if not write_set:
            txn.mark_committed()
            self._finish()
            return
        self.shards = sorted({system._shard_of(k) for k in write_set})
        if len(self.shards) == 1:
            ev = system._paxos_write_event(self.shards[0],
                                           128 + txn.payload_size)
            ev.callbacks.append(self._commit_replicated)
        else:
            # 2PC phase 1: prepare Paxos rounds at every participant
            # shard in parallel; the join collects the votes.
            join = system._paxos_fanout(self.shards, 96)
            join.callbacks.append(self._prepared)

    def _prepared(self, _ev: Event) -> None:
        # Unanimous prepare: replicate the commit decision at the
        # coordinator shard (carries the transaction payload).
        system = self.system
        ev = system._paxos_write_event(self.shards[0],
                                       128 + self.txn.payload_size)
        ev.callbacks.append(self._decided)

    def _decided(self, _ev: Event) -> None:
        # 2PC phase 2: fan the commit record out to the other
        # participants, again in parallel.
        join = self.system._paxos_fanout(self.shards[1:], 96)
        subscribe(join, self._commit_replicated)

    def _commit_replicated(self, _ev: Event) -> None:
        # Commit wait (TrueTime uncertainty) plus the lock span through
        # result delivery and cleanup — all with locks still held, which
        # is what queues conflicting transactions behind a hot key.
        system = self.system
        system.env.after(
            system._commit_wait_time(self.shards[0]), self._commit_waited)

    def _commit_waited(self, _arg) -> None:
        system = self.system
        system._version += 1
        system.state.install(self.txn, system._version)
        self._finish()

    def _finish(self) -> None:
        system = self.system
        txn = self.txn
        held, self.held = self.held, []
        for key in held:
            system.locks.release(txn.txn_id, key)
        self.done.succeed(txn)


class _Query(QueryRoundTrip):
    """One read-only query: no Paxos round (Section 2.1).

    Service stages: one read per op on its shard leader's CPU
    (sequential), then the propagation back with no reply egress.
    """

    __slots__ = ()

    def _arrived(self, _arg) -> None:
        system = self.system
        ops = self.txn.ops
        if self._idx < len(ops):
            leader = system.shard_leaders[system._shard_of(ops[self._idx].key)]
            leader.cpu.serve_then(system.costs.store_get, self._read)
            return
        self._responded(None)

    def _read(self, _arg) -> None:
        self.system.state.get(self.txn.ops[self._idx].key)
        self._idx += 1
        self._arrived(None)


class SpannerSystem(TransactionalSystem):
    name = "spanner"
    update_chain = _Txn
    query_chain = _Query

    NODES_PER_SHARD = 3  # Fig. 14 setup

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None):
        super().__init__(env, config)
        if self.config.num_nodes % self.NODES_PER_SHARD:
            raise ValueError("num_nodes must be a multiple of 3 (Fig. 14)")
        self.num_shards = self.config.num_nodes // self.NODES_PER_SHARD
        self.shard_leaders = self._new_nodes(self.num_shards, "spanner-leader")
        # followers exist for cost symmetry; Paxos is charged as a modelled
        # round on the leader (2 followers ack within the LAN RTT)
        self._new_nodes(self.config.num_nodes - self.num_shards,
                        "spanner-follower")
        self.partitioner = HashPartitioner(self.num_shards)
        self.state = VersionedStore()
        # Sorted key acquisition makes plain FIFO queueing deadlock-free;
        # conflicting transactions *wait* (Section 5.5's contrast with
        # TiDB's abort-fast behaviour).
        self.locks = LockManager(env)
        # serialized Paxos-log pipeline per shard leader
        self.log_threads = {n.name: Resource(env, 1)
                            for n in self.shard_leaders}
        self._version = 0

    # -- helpers ----------------------------------------------------------------

    def _shard_of(self, key: str) -> int:
        return self.partitioner.shard_of(key)

    def _commit_wait_time(self, shard: int) -> float:
        """Commit-wait plus lock span, stretched by the coordinator
        leader's clock-uncertainty skew.

        TrueTime commit-wait is "sleep out the uncertainty bound": a
        chaos ClockSkew step raises :attr:`Node.clock_skew` on a shard
        leader and every commit it coordinates waits that much longer —
        correctness holds, latency pays.  The unskewed path returns the
        exact historical float (no ``+ 0.0`` drift).
        """
        wait = self.costs.spanner_commit_wait + self.costs.spanner_lock_hold
        skew = self.shard_leaders[shard].clock_skew
        return wait + skew if skew else wait

    def _paxos_write_event(self, shard: int, size: int) -> Event:
        """One Paxos consensus round at a shard (flat chain)."""
        return _PaxosWrite(self, shard, size).start()

    def _paxos_fanout(self, shards: list[int], size: int) -> AllOf:
        """Parallel Paxos rounds at ``shards``, joined by ``env.all_of``."""
        return self.env.all_of([_PaxosWrite(self, shard, size).start()
                                for shard in shards])
