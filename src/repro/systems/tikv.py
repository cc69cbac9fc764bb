"""TiKV system model: multi-Raft replicated key-value store.

TiKV splits the key space into regions, each its own Raft group; region
*leaders* are balanced across nodes, so — unlike etcd — writes are
consensus-sequenced on every node in parallel.  Under the paper's full
replication mode every region replicates to all nodes, so each node also
carries follower and apply work for every other node's regions: adding
nodes adds capacity (more leaders, hot-spot alleviation) *and* overhead
(more followers per group) — the interplay behind Table 5.

We model one Raft group per node (the aggregate of all regions whose
leader lives there) and a serialized per-node "raftstore/apply" thread,
which is TiKV's actual architecture (batched raftstore and apply threads).
"""

from __future__ import annotations

from typing import Optional

from ..consensus.raft import RaftConfig, RaftGroup
from ..sharding.partitioner import HashPartitioner
from ..sim.kernel import Environment, Event, subscribe
from ..sim.resources import Resource
from ..txn.transaction import AbortReason, OpType, Transaction
from .base import (QueryRoundTrip, RoundTrip, SystemConfig,
                   TransactionalSystem)

__all__ = ["TikvCluster", "TikvSystem"]


class _ApplyLoop:
    """One node's serialized raftstore/apply thread for one group, as a
    perpetual flat chain.

    Full replication runs ``groups x nodes`` of these (every node pays
    apply work for every group), which is why the loop is parked
    callbacks and not a Process: a generator would cost two
    ``Process._resume`` walks per applied entry per instance.  Only the
    leader's instance publishes state and resolves write waiters;
    followers just pay the serve cost.
    """

    __slots__ = ("cluster", "group_id", "is_leader", "applied", "thread",
                 "record", "index")

    def __init__(self, cluster: "TikvCluster", group_id: int,
                 node_name: str, is_leader: bool):
        self.cluster = cluster
        self.group_id = group_id
        self.is_leader = is_leader
        self.applied = cluster.groups[group_id].replicas[node_name].applied
        self.thread = cluster.store_threads[node_name]
        self.record = None
        self.index = 0

    def start(self) -> None:
        self.cluster.env._schedule_call(self._next, None)

    def _next(self, _arg) -> None:
        subscribe(self.applied.get(), self._got)

    def _got(self, ev: Event) -> None:
        self.index, self.record = ev._value
        self.thread.serve_then(self.cluster._apply_cost, self._applied)

    def _applied(self, _arg) -> None:
        if self.is_leader:
            cluster = self.cluster
            record = self.record
            cluster._version += 1
            # The engine mirror happens on the leader only (replicas
            # would build the identical structure — wall-clock waste).
            cluster.state.put(record["key"], record["value"],
                              cluster._version)
            # Stamp the installed version into the (shared) meta dict so
            # client sessions can learn each write's version — the
            # per-key commit stamps weakened-isolation histories need.
            record["meta"]["applied_version"] = cluster._version
            result = cluster.state.commit(cluster._version)
            index_cost = cluster.costs.index_commit_time(
                result.hashes_computed, result.node_ops)
            if index_cost > 0.0:
                # Authenticated index: measured digest work extends the
                # serialized apply before the write is acknowledged.
                self.thread.serve_then(index_cost, self._index_folded)
                return
            self._resolve()
            return
        self._next(None)

    def _index_folded(self, _arg) -> None:
        self._resolve()

    def _resolve(self) -> None:
        cluster = self.cluster
        waiter = cluster._waiters.pop((self.group_id, self.index), None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(self.index)
        self._next(None)


class _KvWrite:
    """One replicated write through a region group, as a flat chain.

    gRPC + scheduler CPU on the leader (parallel across cores) -> Raft
    commit -> leader apply waiter -> done.  This is the participant leg
    of TiDB's percolator 2PC (one per prewrite key, one per commit), so
    no Process is spawned per write.  Cascade contract: ``start`` takes
    one scheduled slot; ``done`` is succeeded through the scheduler from
    the apply waiter's callback (``(group, index)``), or failed with the
    proposal's exception when the group cannot commit.
    """

    __slots__ = ("cluster", "key", "value", "meta", "done",
                 "group_id", "index")

    def __init__(self, cluster: "TikvCluster", key: str, value: bytes,
                 meta: Optional[dict], done: Event):
        self.cluster = cluster
        self.key = key
        self.value = value
        self.meta = meta
        self.done = done
        self.group_id = 0
        self.index = 0

    def start(self) -> None:
        self.cluster.env._schedule_call(self._begin, None)

    def _begin(self, _arg) -> None:
        cluster = self.cluster
        self.group_id = cluster.leader_of(self.key)
        node = cluster.nodes[self.group_id]
        node.cpu.serve_then(cluster.costs.tikv_request_cpu, self._scheduled)

    def _scheduled(self, _arg) -> None:
        cluster = self.cluster
        record = {"key": self.key, "value": self.value,
                  "meta": self.meta or {}}
        ev = cluster.groups[self.group_id].propose(
            record, size=96 + len(self.key) + len(self.value))
        subscribe(ev, self._proposed)

    def _proposed(self, ev: Event) -> None:
        if not ev._ok:
            self.done.fail(ev._value)
            return
        self.index, _item = ev._value
        waiter = self.cluster.env.event()
        self.cluster._waiters[(self.group_id, self.index)] = waiter
        waiter.callbacks.append(self._applied)

    def _applied(self, _ev: Event) -> None:
        self.done.succeed((self.group_id, self.index))


class _KvRead:
    """Leaseholder point get at the region leader, as a flat chain."""

    __slots__ = ("cluster", "node", "key", "done")

    def __init__(self, cluster: "TikvCluster", node, key: str, done: Event):
        self.cluster = cluster
        self.node = node
        self.key = key
        self.done = done

    def start(self) -> None:
        self.cluster.env._schedule_call(self._begin, None)

    def _begin(self, _arg) -> None:
        cluster = self.cluster
        cluster.read_paths[self.node.name].serve_then(
            cluster.costs.tikv_read_cpu, self._served)

    def _served(self, _arg) -> None:
        value, version = self.cluster.state.get(self.key)
        self.done.succeed((value, version))


class TikvCluster:
    """The storage cluster: N nodes, N raft groups, shared state.

    Used standalone by :class:`TikvSystem` and as the storage layer of
    :class:`repro.systems.tidb.TiDBSystem`.
    """

    def __init__(self, system: TransactionalSystem, num_nodes: int,
                 prefix: str = "tikv"):
        self.system = system
        self.env = system.env
        self.costs = system.costs
        self.nodes = system._new_nodes(num_nodes, prefix)
        self.partitioner = HashPartitioner(num_nodes)
        # Storage engine (Table 2: TiKV = LSM / RocksDB).  The default
        # wraps the LSM the model always carried for byte accounting —
        # now mirrored on every leader apply, not just at load;
        # ``extras["index"]`` swaps in any other Table 2 choice and
        # ``extras["wal"]`` charges the group-committed fsync share per
        # applied entry.
        system._build_state(default_index="lsm")
        self.engine = system.engine
        self.state = system.state
        self._apply_cost = (self.costs.tikv_apply + self.costs.store_put
                            + system._wal_cost)
        self._version = 0
        self.groups: list[RaftGroup] = []
        for i, leader in enumerate(self.nodes):
            ordered = [leader] + [n for n in self.nodes if n is not leader]
            group = RaftGroup(
                self.env, ordered, system.network, self.costs,
                RaftConfig(batch_window=self.costs.raft_batch_window,
                           max_batch=self.costs.raft_max_batch,
                           message_kind=f"raft:{prefix}:{i}"),
                rng=system.rng)
            self.groups.append(group)
        # Serialized apply/raftstore thread and read path per node.
        self.store_threads = {n.name: Resource(self.env, 1)
                              for n in self.nodes}
        self.read_paths = {n.name: Resource(self.env, 1) for n in self.nodes}
        self._waiters: dict[tuple[int, int], Event] = {}
        # Full replication: every node applies every group's entries on its
        # serialized store thread (the paper's Section 5.2.2 observation
        # that more TiKV nodes mean more consensus/apply overhead per node).
        for i, group in enumerate(self.groups):
            for node in self.nodes:
                _ApplyLoop(self, i, node.name,
                           is_leader=(node is self.nodes[i])).start()

    # -- placement ---------------------------------------------------------------

    def leader_of(self, key: str) -> int:
        return self.partitioner.shard_of(key)

    def leader_node(self, key: str):
        return self.nodes[self.partitioner.shard_of(key)]

    # -- writes ---------------------------------------------------------------------

    def kv_write(self, key: str, value: bytes, meta: Optional[dict] = None) -> Event:
        """Replicate one write through the key's region group.

        The event fires once the write is committed *and applied* on the
        leader (TiKV acknowledges after apply).
        """
        done = self.env.event()
        _KvWrite(self, key, value, meta, done).start()
        return done

    # -- reads ------------------------------------------------------------------------

    def kv_read(self, key: str) -> Event:
        """Leaseholder point get at the region leader."""
        return self.read_at(self.leader_node(key), key)

    def read_at(self, node, key: str) -> Event:
        """:meth:`kv_read` at ``node``, the key's region leader, which
        the caller has already looked up."""
        done = self.env.event()
        _KvRead(self, node, key, done).start()
        return done

    def load(self, records: dict[str, bytes]) -> None:
        self._version = self.state.load(records, self._version + 1)
        self.state.commit(self._version)


class _Update(RoundTrip):
    """One client update transaction against the cluster.

    Service stages: one replicated ``kv_write`` per write op
    (sequential: the next is proposed when the last applied), then the
    reply from the first key's region leader.

    Under weakened isolation (``extras["isolation"]``) the chain grows a
    client-driven read-compute-write session: leaseholder reads of every
    input key, the transaction's logic against those values, then the
    write-back of the derived write set.  "snapshot" holds
    first-updater-wins write intents from reservation to the last apply
    (conflicts abort with ``WRITE_WRITE_CONFLICT``); "read_committed"
    writes back blindly.  Each applied write's version is collected into
    ``txn.write_versions`` — per-key commit stamps for the MVSG checker.
    The default (serializable) path is the seed's blind-write pipeline:
    it reads nothing, so :meth:`TikvSystem.submit` refuses a transaction
    that carries logic there.
    """

    __slots__ = ("_reads", "_wkeys", "_metas")

    def request_size(self) -> int:
        return 64 + self.txn.payload_size

    def _arrived(self, _arg) -> None:
        if self.system.scheduler is not None:
            self._reads = {}
            self._next_session_read()
            return
        self._next_write()

    # -- weakened-isolation session (read -> logic -> write-back) ----------

    def _next_session_read(self) -> None:
        ops = self.txn.ops
        idx = self._idx
        while idx < len(ops) and ops[idx].op_type not in (OpType.READ,
                                                          OpType.UPDATE):
            idx += 1
        if idx >= len(ops):
            self._derive()
            return
        self._idx = idx
        subscribe(self.system.cluster.kv_read(ops[idx].key),
                  self._session_read_done)

    def _session_read_done(self, ev: Event) -> None:
        key = self.txn.ops[self._idx].key
        value, version = ev._value
        self.txn.read_set[key] = version
        self._reads[key] = value if value is not None else b""
        self._idx += 1
        self._next_session_read()

    def _derive(self) -> None:
        system = self.system
        txn = self.txn
        scheduler = system.scheduler
        if not txn.derive_writes(self._reads):
            self._respond()     # LOGIC abort at the session snapshot
            return
        if not txn.write_set:
            txn.mark_committed()
            self._respond()
            return
        if not scheduler.reserve(txn):
            # snapshot isolation: a conflicting intent or superseded
            # read — first-updater-wins aborts before any consensus
            self._respond()
            return
        self._wkeys = sorted(txn.write_set)
        self._metas = {}
        self._idx = 0
        self._next_session_write()

    def _next_session_write(self) -> None:
        system = self.system
        txn = self.txn
        if self._idx >= len(self._wkeys):
            txn.write_versions = {
                key: meta["applied_version"]
                for key, meta in self._metas.items()}
            txn.commit_version = max(txn.write_versions.values())
            system.scheduler.release(txn)
            txn.mark_committed()
            self._respond()
            return
        key = self._wkeys[self._idx]
        # Seed the stamp so the dict is truthy: ``_KvWrite`` keeps a
        # truthy meta as the shared record dict the leader's apply loop
        # stamps ``applied_version`` into.
        meta: dict = {"applied_version": 0}
        self._metas[key] = meta
        subscribe(system.cluster.kv_write(key, txn.write_set[key], meta=meta),
                  self._session_wrote)

    def _session_wrote(self, ev: Event) -> None:
        txn = self.txn
        if not ev._ok:
            self.system.scheduler.release(txn)
            txn.mark_aborted(AbortReason.NO_LEADER)
            self.done.succeed(txn)
            return
        self._idx += 1
        self._next_session_write()

    # -- default (serializable) blind-write pipeline -----------------------

    def _next_write(self) -> None:
        ops = self.txn.ops
        idx = self._idx
        while idx < len(ops) and not ops[idx].is_write:
            idx += 1
        if idx >= len(ops):
            self._respond()
            return
        self._idx = idx
        op = ops[idx]
        subscribe(self.system.cluster.kv_write(op.key, op.value),
                  self._wrote)

    def _wrote(self, ev: Event) -> None:
        txn = self.txn
        if not ev._ok:
            txn.mark_aborted(AbortReason.NO_LEADER)
            self.done.succeed(txn)
            return
        self._idx += 1
        self._next_write()

    def _respond(self) -> None:
        self._reply(
            self.system.cluster.leader_node(self.txn.ops[0].key), 128)

    def _finish(self, _arg) -> None:
        system = self.system
        txn = self.txn
        if system.scheduler is None:
            # Blind-write pipeline: commit is implied by the last apply.
            # Weak sessions arrive with their status already decided.
            txn.mark_committed()
        if system.history is not None:
            system.history.observe(txn)
        self.done.succeed(txn)


class _Query(QueryRoundTrip):
    """One read-only query: one leaseholder read per op (sequential),
    then the reply from the first key's region leader, looked up once
    for its read and its reply."""

    __slots__ = ("leader",)

    def _arrived(self, _arg) -> None:
        ops = self.txn.ops
        idx = self._idx
        if idx < len(ops):
            cluster = self.system.cluster
            key = ops[idx].key
            node = cluster.leader_node(key)
            if idx == 0:
                self.leader = node
            self._idx = idx + 1
            subscribe(cluster.read_at(node, key), self._arrived)
            return
        self._reply(self.leader, 64 + self.txn.payload_size)


class TikvSystem(TransactionalSystem):
    """Standalone TiKV benchmarked as in Fig. 4 ("TiKV" bars)."""

    name = "tikv"
    weak_isolation = True
    storage_engine = "always"
    update_chain = _Update
    query_chain = _Query

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None):
        super().__init__(env, config)
        self.cluster = TikvCluster(self, self.config.num_nodes)
        # Isolation spectrum (extras["isolation"]): the default pipeline
        # is the seed's blind-write path (each op consensus-sequenced;
        # serializable for single-key transactions).  Weakened levels
        # run a client read-compute-write session per transaction —
        # "snapshot" with first-updater-wins write intents,
        # "read_committed" with blind write-back.  Multi-key reads are
        # per-leaseholder (not one atomic snapshot), so weak levels are
        # honest only for single-key transactions; the ablation pins
        # ops_per_txn=1.
        self._wire_isolation(self.cluster.state)

    def load(self, records: dict[str, bytes]) -> None:
        self.cluster.load(records)

    def submit(self, txn: Transaction) -> Event:
        if txn.logic is not None and self.scheduler is None:
            # Blind per-key writes would install the ops' placeholder
            # values in place of what the logic derives.
            raise ValueError(
                "tikv's serializable path writes each op blindly and "
                "cannot run transaction logic; run it with "
                'extras={"isolation": "snapshot"}')
        return super().submit(txn)
