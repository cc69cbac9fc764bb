"""etcd system model: NoSQL key-value store over a single Raft group.

Architecture (Section 4.1): one consensus instance sequences *all*
requests; data is fully replicated; the state machine is a B+ tree
(BoltDB).  Like a blockchain, execution is serial in log order — which is
why etcd is the database the paper finds closest to blockchains
structurally, yet far faster because its per-entry costs are tiny and it
carries no security overhead.

Performance mechanics reproduced here:

* update throughput is bounded by the leader's serialized pipeline:
  per-entry processing + per-follower replication egress — so it *drops*
  as nodes are added (Table 4: 19282 tps at 3 nodes -> 6076 at 19);
* linearizable reads are served by every node (ReadIndex), so aggregate
  query throughput is high (Fig. 4b) and unaffected by consensus.
"""

from __future__ import annotations

from typing import Optional

from ..concurrency.serial import SerialExecutor
from ..consensus.raft import RaftConfig, RaftGroup
from ..sim.kernel import Environment, Event, subscribe
from ..sim.resources import Resource
from ..txn.transaction import AbortReason
from .base import (QueryRoundTrip, RoundTrip, SystemConfig,
                   TransactionalSystem)

__all__ = ["EtcdSystem"]


class _ApplyLoop:
    """The serial state-machine apply loop, as a perpetual flat chain.

    Parks one callback on ``applied.get()`` and one on the disk-serve
    per committed entry — the identical wait sequence the old coroutine
    loop issued, minus two ``Process._resume`` walks per transaction.
    """

    __slots__ = ("system", "node", "applied", "txn")

    def __init__(self, system: "EtcdSystem"):
        self.system = system
        self.node = system.servers[0]
        leader_name = self.node.name
        self.applied = system.raft.replicas[leader_name].applied
        self.txn = None

    def start(self) -> None:
        self.system.env._schedule_call(self._next, None)

    def _next(self, _arg) -> None:
        subscribe(self.applied.get(), self._got)

    def _got(self, ev: Event) -> None:
        _index, self.txn = ev._value
        system = self.system
        self.node.disk.serve_then(system._apply_cost, self._applied)

    def _applied(self, _arg) -> None:
        system = self.system
        txn = self.txn
        system._version += 1
        if system.scheduler is not None:
            # Weakened isolation: the txn was staged (read + logic) at
            # the gateway; the serial apply only validates (SI:
            # first-updater-wins on write keys; RC: nothing) and
            # installs the buffered write set.
            system.scheduler.apply(txn, system._version)
        else:
            # Single consensus order == serial execution: run the
            # transaction (including any logic) against the state
            # machine.  Writes mirror into the storage engine via the
            # state facade.
            system.executor.execute(txn, system._version)
        if system.history is not None:
            system.history.observe(txn)
        # Engine commit per applied entry (etcd has no blocks; the WAL
        # group commit and any authenticated-index digests fold here).
        result = system.state.commit(system._version)
        index_cost = system.costs.index_commit_time(
            result.hashes_computed, result.node_ops)
        if index_cost > 0.0:
            # Authenticated index: the measured digest work extends the
            # serialized apply (plain engines charge nothing — the
            # default fast path resolves the waiter directly).
            self.node.disk.serve_then(index_cost, self._index_folded)
            return
        self._resolve()

    def _index_folded(self, _arg) -> None:
        self._resolve()

    def _resolve(self) -> None:
        txn = self.txn
        waiter = self.system._waiters.pop(txn.txn_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(txn)
        self._next(None)


class _Update(RoundTrip):
    """One client update through the Raft pipeline.

    Service stages: leader request CPU (gRPC decode + mvcc txn wrap,
    parallel across cores) -> Raft commit -> state-machine apply, then
    the reply from the leader.  With no Raft leader it aborts in
    ``_begin``, before any egress.  The seeded ``etcd`` /
    ``etcd-seed23`` pins hold every stage to its position.
    """

    __slots__ = ("leader",)

    def request_size(self) -> int:
        return 64 + self.txn.payload_size

    def _begin(self, arg) -> None:
        self.leader = self.system.raft.leader
        if self.leader is None:
            self.txn.submitted_at = self.system.env.now
            self._abort()
            return
        super()._begin(arg)

    def _abort(self) -> None:
        """No Raft leader took the write: refused before, or lost during,
        the proposal."""
        txn = self.txn
        txn.mark_aborted(AbortReason.NO_LEADER)
        self.done.succeed(txn)

    def _arrived(self, _arg) -> None:
        self.leader.node.cpu.serve_then(
            self.system.costs.etcd_request_cpu, self._decoded)

    def _decoded(self, _arg) -> None:
        system = self.system
        if system.scheduler is not None:
            # Weakened isolation: read the inputs at the gateway (one
            # committed instant on the leader's read path) and run the
            # logic *before* consensus, so the serialized apply loop
            # only validates+installs.  Off the critical path — the
            # serial apply/disk pipeline stays the bottleneck.
            nreads = len(self.txn.read_keys)
            if nreads:
                system._read_paths[self.leader.node.name].serve_then(
                    system.costs.etcd_read_cpu * nreads, self._staged)
                return
            self._stage_and_propose()
            return
        commit_ev = self.leader.propose(self.txn, size=self.request_size())
        subscribe(commit_ev, self._committed)

    def _staged(self, _arg) -> None:
        self._stage_and_propose()

    def _stage_and_propose(self) -> None:
        if not self.system.scheduler.stage(self.txn):
            # Constraint violation against the gateway snapshot: answer
            # the client without burning a consensus slot.
            self._applied(None)
            return
        commit_ev = self.leader.propose(self.txn, size=self.request_size())
        subscribe(commit_ev, self._committed)

    def _committed(self, ev: Event) -> None:
        if not ev._ok:
            self._abort()
            return
        system = self.system
        apply_ev = system.env.event()
        system._waiters[self.txn.txn_id] = apply_ev
        apply_ev.callbacks.append(self._applied)

    def _applied(self, _ev: Event) -> None:
        # status (committed / logic-aborted) was set by the apply loop
        self._reply(self.leader.node, 128)


class _Query(QueryRoundTrip):
    """One read-only query: one read per op on a round-robin server's
    read path, then the reply from that server."""

    __slots__ = ("server",)

    def _begin(self, arg) -> None:
        self.server = self.system._pick_round_robin(self.system.servers)
        super()._begin(arg)

    def _arrived(self, _arg) -> None:
        system = self.system
        if self._idx < len(self.txn.ops):
            system._read_paths[self.server.name].serve_then(
                system.costs.etcd_read_cpu, self._read)
            return
        self._reply(self.server, 64 + self.txn.payload_size)

    def _read(self, _arg) -> None:
        self.system.state.get(self.txn.ops[self._idx].key)
        self._idx += 1
        self._arrived(None)


class EtcdSystem(TransactionalSystem):
    name = "etcd"
    weak_isolation = True
    storage_engine = "always"
    update_chain = _Update
    query_chain = _Query

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None):
        super().__init__(env, config)
        self.servers = self._new_nodes(self.config.num_nodes, "etcd")
        self.raft = RaftGroup(
            env, self.servers, self.network, self.costs,
            RaftConfig(batch_window=self.costs.raft_batch_window,
                       max_batch=self.costs.raft_max_batch,
                       message_kind="raft:etcd"),
            rng=self.rng)
        # Storage engine (Table 2: etcd = B-tree / BoltDB).  The default
        # wraps the same BPlusTree the model always used; an
        # ``extras["index"]`` override swaps in any other Table 2 choice,
        # and ``extras["wal"]`` journals writes through the group-committed
        # WAL, charging one wal_sync share per applied entry.
        self._build_state(default_index="btree")
        self.executor = SerialExecutor(self.state)
        self._apply_cost = (self.costs.raft_apply + self.costs.store_put
                            + self._wal_cost)
        self._version = 0
        # Serialized apply loop (etcd applies committed entries in order on
        # a single goroutine) and serialized read path per node.
        self._read_paths = {n.name: Resource(env, 1) for n in self.servers}
        self._waiters: dict[int, Event] = {}
        # Isolation spectrum (extras["isolation"]): default is serial
        # execution in log order (serializable).  Weakened levels stage
        # reads+logic at the gateway and validate at apply: "snapshot"
        # keeps first-updater-wins, "read_committed" installs blindly.
        self._wire_isolation(self.state)
        _ApplyLoop(self).start()

    # -- data loading -------------------------------------------------------

    def load(self, records: dict[str, bytes]) -> None:
        self._version = self.state.load(records, self._version + 1)
        self.state.commit(self._version)
