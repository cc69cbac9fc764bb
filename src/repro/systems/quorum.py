"""Quorum system model: order-execute permissioned blockchain.

Quorum is a geth fork that swaps PoW for Raft (CFT) or Istanbul BFT and
keeps the EVM and the Merkle Patricia Trie state (Section 4.1).
Lifecycle (Fig. 3a): transactions enter the leader's txpool; every block
interval the leader *serially pre-executes* a batch at the ledger tip,
assembles a block, and runs consensus on it; after consensus the block is
serially executed again (validation + MPT reconstruction) before the next
block can be proposed — the "double execution" plus "sequential
validation of in-block transactions" the paper blames for Quorum's
record-size sensitivity (Fig. 11: 1547 tps at 10-byte records falling to
58 tps at 5000 bytes, as EVM and MPT hashing costs grow with the record).

The MPT is charged through the calibrated cost model by default (Fig. 11b:
56 us at 10 B -> 2.5 ms at 5000 B per reconstruction); tests can supply a
real :class:`repro.adt.mpt.MerklePatriciaTrie` to check state-root
behaviour end to end.
"""

from __future__ import annotations

from typing import Optional

from ..adt.mpt import MerklePatriciaTrie
from ..concurrency.rc import ReadCommittedScheduler
from ..concurrency.serial import SerialExecutor
from ..concurrency.si import SnapshotScheduler, isolation_level
from ..consensus.ibft import IbftConfig, IbftGroup
from ..consensus.raft import RaftConfig, RaftGroup
from ..sim.kernel import Environment, Event, WakeableQueue
from ..sim.resources import Resource, Store
from ..storage.engine import MptEngine, engine_from_config
from ..txn.ledger import Ledger
from ..txn.state import VersionedStore
from ..txn.transaction import AbortReason, Transaction, TxnStatus
from .base import SystemConfig, TransactionalSystem

__all__ = ["QuorumSystem"]


class _Submission:
    """Client submission to the leader txpool, as a flat chain.

    Client NIC egress -> propagation -> leader txpool CPU -> mempool
    put, one parked callback per stage — the identical schedule sequence
    the spawned ``_do_submit`` coroutine issued (whose completion event
    carried no waiters, so dropping it is unobservable).
    """

    __slots__ = ("system", "txn", "done")

    def __init__(self, system: "QuorumSystem", txn: Transaction, done: Event):
        self.system = system
        self.txn = txn
        self.done = done

    def start(self) -> None:
        self.system.env._schedule_call(self._send, None)

    def _send(self, _arg) -> None:
        system = self.system
        self.txn.submitted_at = system.env.now
        size = 192 + self.txn.payload_size
        ev = system.client_node.nic_out.serve_event(
            system.costs.net_send_overhead + system.costs.transfer_time(size))
        ev.callbacks.append(self._sent)

    def _sent(self, _ev: Event) -> None:
        system = self.system
        timer = system.env.timeout(system.costs.net_latency)
        timer.callbacks.append(self._arrived)

    def _arrived(self, _ev: Event) -> None:
        system = self.system
        ev = system.servers[0].compute(system.costs.quorum_txpool_cpu)
        ev.callbacks.append(self._pooled)

    def _pooled(self, _ev: Event) -> None:
        self.system.mempool.put((self.txn, self.done))


class QuorumSystem(TransactionalSystem):
    name = "quorum"

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None,
                 consensus: str = "raft", real_state: bool = False,
                 batched_validation: bool = False):
        super().__init__(env, config)
        if consensus not in ("raft", "ibft"):
            raise ValueError(f"unknown consensus {consensus!r}")
        if batched_validation and not real_state:
            raise ValueError("batched_validation requires real_state=True")
        self.consensus = consensus
        self.servers = self._new_nodes(self.config.num_nodes, "quorum")
        if consensus == "raft":
            self.group = RaftGroup(
                env, self.servers, self.network, self.costs,
                RaftConfig(batch_window=0.002, max_batch=8,
                           message_kind="raft:quorum"),
                rng=self.rng)
        else:
            self.group = IbftGroup(
                env, self.servers, self.network, self.costs,
                IbftConfig(block_interval=self.costs.quorum_block_interval,
                           message_kind="ibft:quorum"),
                rng=self.rng)
        # Storage engine (Table 2 index column): an explicit
        # ``extras["index"]`` choice runs the real structure and charges
        # its *measured* commit deltas (EVM-only per-txn cost, one
        # index_commit_time charge per block — zero for plain indexes:
        # the Fig. 12 ablation).  Without it, the legacy modes apply:
        # the per-record Fig. 11b MPT fit (optionally maintaining a real
        # trie under real_state), or the Sec. 6 batched_validation
        # ablation (fit at proposal, measured deltas at validation).
        self.engine = engine_from_config(self.config.extras)
        self._engine_mode = self.engine is not None
        if self._engine_mode:
            self._fit_index = False    # EVM-only per-txn costs
            self._measured = self.engine.authenticated
        else:
            self.engine = MptEngine() if real_state else None
            self._fit_index = True     # per-record Fig. 11b reconstruction
            self._measured = batched_validation
        self.state = VersionedStore(engine=self.engine)
        # One group-committed fsync share per sealed block when the
        # extras["wal"] journal is attached (DB-side systems charge it
        # per applied entry instead).
        self._wal_cost = (self.costs.wal_sync
                          if self.engine is not None
                          and self.engine.wal is not None else 0.0)
        self.executor = SerialExecutor(self.state)
        # real_state=True maintains an actual MPT alongside the calibrated
        # cost model: writes are staged per transaction and batch-committed
        # once per sealed block, stamping a verifiable state root into each
        # block header (timing is still charged via mpt_update_time).
        self.real_state = real_state
        # Sec. 6 ablation: charge block validation's MPT crypto per
        # *measured* hash (batched commit over shared prefixes) instead
        # of the per-record Fig. 11b reconstruction fit.
        self.batched_validation = batched_validation
        self.mpt_hashes_charged = 0
        # Followers re-validate with the same batched crypto model: the
        # leader publishes each block's measured hash delta and a
        # follower blocks on its stream until the delta is available.
        self._delta_streams: dict[str, Store] = {}
        self.state_trie = (self.engine.trie
                           if isinstance(self.engine, MptEngine) else None)
        self.ledger = Ledger()
        # Wake-on-proposal ingress: the block producer parks on this
        # queue while the txpool is empty and is woken by the first
        # arriving transaction at the same simulated time.
        self.mempool: WakeableQueue = WakeableQueue(env)
        # Single-threaded EVM per node.
        self.evm_threads = {n.name: Resource(env, 1) for n in self.servers}
        self._version = 0
        self.blocks_minted = 0
        # Isolation spectrum (extras["isolation"]): the default
        # order-execute pipeline is serializable (serial double
        # execution in block order).  Weakened levels execute a block's
        # transactions against one block-start snapshot — intra-block
        # order no longer matters, so both execution phases fan out
        # across the leader's cores instead of the single EVM thread:
        # "snapshot" validates first-committer-wins at apply,
        # "read_committed" installs blindly (lost updates admitted).
        self.isolation = isolation_level(self.config.extras)
        self.scheduler = None
        self.history = None
        if self.isolation == "snapshot":
            self.scheduler = SnapshotScheduler(self.state)
        elif self.isolation == "read_committed":
            self.scheduler = ReadCommittedScheduler(self.state)
        if "isolation" in self.config.extras:
            from ..analysis.serializability import HistoryChecker
            self.history = HistoryChecker()
        self.spawn(self._block_producer(), name="quorum-producer")
        for node in self.servers[1:]:
            if self._measured:
                self._delta_streams[node.name] = Store(env)
            self.spawn(self._follower_exec_loop(node),
                       name=f"quorum-exec:{node.name}")

    # -- loading -------------------------------------------------------------------

    def load(self, records: dict[str, bytes]) -> None:
        for key, value in records.items():
            self.state.put(key, value, 0)
        # writes mirrored into the engine above; one batched genesis commit
        self.state.commit(0)

    # -- cost helpers ------------------------------------------------------------------

    def _exec_cost(self, txn: Transaction) -> float:
        """Serial EVM execution (+ fitted MPT path rebuild) per transaction.

        With a configured engine the index cost is *measured* at the
        block commit instead, so only the EVM term is charged here.
        """
        cost = self.costs.evm_exec_time(txn.payload_size)
        if not self._fit_index:
            return cost
        writes = txn.write_keys or [op.key for op in txn.ops]
        per_key_payload = (txn.payload_size // max(1, len(writes))
                           if txn.payload_size else 8)
        for _key in writes:
            cost += self.costs.mpt_update_time(per_key_payload)
        return cost

    # -- submission -----------------------------------------------------------------------

    def submit(self, txn: Transaction) -> Event:
        done = self.env.event()
        _Submission(self, txn, done).start()
        return done

    # -- block production (order-execute) ----------------------------------------------------

    def _block_producer(self):
        """The leader's order-execute pipeline, one block per iteration.

        Serializable (the default) executes a block serially on the
        single EVM thread, twice.  Under weakened isolation every
        transaction in a block executes against the *block-start
        snapshot*, so intra-block data dependencies vanish and both
        execution phases (pre-execution at proposal, validation
        re-execution at commit) fan out across the leader's cores — the
        throughput the serial double execution gives up.  Semantics
        after consensus: stage all reads at one committed instant, then
        serially validate+apply in block order — first-committer-wins
        under "snapshot" (conflicting writers abort with
        ``WRITE_WRITE_CONFLICT``), blind last-writer-wins under
        "read_committed" (lost updates admitted, counted post-hoc by
        the anomaly detector).  Followers keep the serial re-execution
        loop — they are off the client's critical path.
        """
        leader = self.servers[0]
        evm = self.evm_threads[leader.name]
        scheduler = self.scheduler
        history = self.history
        measured = self._measured
        # Engine-mode clients (plain or authenticated) get their
        # receipt at the block boundary — both Fig. 12 ablation arms
        # release at the same point, so the A/B gap is *only* the
        # measured index-commit charge — and so does a weakened-isolation
        # block, which installs as a whole.  The legacy fit modes keep
        # the seed's per-transaction release.
        late_release = (measured or self._engine_mode
                        or scheduler is not None)
        while True:
            if not self.mempool:
                yield self.mempool.wait()
            yield self.env.timeout(self.costs.quorum_block_interval)
            batch = self.mempool.take(self.costs.quorum_max_block_txns)
            if not batch:
                continue
            proposal_start = self.env.now
            # Phase 1: pre-execution at the tip (proposal) — serial, or
            # parallel across cores against the block snapshot.
            if scheduler is None:
                for txn, _done in batch:
                    yield evm.serve_event(self._exec_cost(txn))
            else:
                yield self.env.all_of([
                    leader.compute(self._exec_cost(txn))
                    for txn, _done in batch])
            for txn, _done in batch:
                txn.phases["proposal"] = self.env.now - proposal_start
            # Phase 2: consensus on the assembled block.
            consensus_start = self.env.now
            block_txns = [txn for txn, _done in batch]
            size = 512 + sum(192 + t.payload_size for t in block_txns)
            try:
                yield self.group.propose(block_txns, size=size)
            except Exception:
                for txn, done in batch:
                    txn.mark_aborted(AbortReason.COORDINATOR_ABORT)
                    self._finish(done, txn)
                continue
            for txn, _done in batch:
                txn.phases["consensus"] = self.env.now - consensus_start
            # Phase 3: commit — validation re-execution + index
            # maintenance (the state transition becomes final here).
            # The per-record-fit path charges EVM + per-write MPT
            # reconstruction per transaction; the measured paths
            # (batched-validation ablation / configured engine) charge
            # EVM only here and the index as one measured batch commit
            # below (Sec. 6: each touched path hashed once per block,
            # not once per write).  Writes mirror into the engine via
            # the state facade as they are applied.
            commit_start = self.env.now
            if scheduler is None:
                for txn, done in batch:
                    index_cost = (self.costs.evm_exec_time(txn.payload_size)
                                  if measured else self._exec_cost(txn))
                    yield evm.serve_event(self.costs.sig_verify + index_cost)
                    self._version += 1
                    self.executor.execute(txn, self._version)
                    if history is not None:
                        history.observe(txn)
                    if not late_release:
                        txn.phases["commit"] = self.env.now - commit_start
                        self._finish(done, txn)
            else:
                # Parallel re-execution, then the zero-cost snapshot
                # commit: stage every transaction's reads at the block
                # tip, validate+install serially.
                yield self.env.all_of([
                    leader.compute(
                        self.costs.sig_verify
                        + (self.costs.evm_exec_time(txn.payload_size)
                           if measured else self._exec_cost(txn)))
                    for txn, _done in batch])
                for txn, _done in batch:
                    scheduler.stage(txn)
                for txn, _done in batch:
                    if txn.status is not TxnStatus.ABORTED:
                        self._version += 1
                        scheduler.apply(txn, self._version)
                    if history is not None:
                        history.observe(txn)
            # ONE batched engine commit per block (no simulated cost in
            # the fit modes — the per-record fit already charged it).
            result = self.state.commit(self._version)
            if measured:
                # Simulated cost wired from the engine's measured
                # hashes_computed delta (zero for a plain engine — the
                # authenticated-vs-plain Fig. 12 gap is exactly this).
                delta = result.hashes_computed
                self.mpt_hashes_charged += delta
                for stream in self._delta_streams.values():
                    stream.put((delta, result.node_ops))
                if self._engine_mode:
                    yield evm.serve_event(
                        self.costs.index_commit_time(delta, result.node_ops)
                        + self._wal_cost)
                else:
                    # legacy Sec. 6 ablation: crypto-only charge
                    yield evm.serve_event(self.costs.mpt_commit_time(delta))
            elif self._engine_mode and self._wal_cost:
                # plain engine + WAL flag: the block's group commit
                yield evm.serve_event(self._wal_cost)
            if late_release:
                for txn, done in batch:
                    txn.phases["commit"] = self.env.now - commit_start
                    self._finish(done, txn)
            root = result.root if (result is not None
                                   and self.engine.authenticated) else None
            if root is not None:
                self.ledger.append_block(block_txns, timestamp=self.env.now,
                                         state_root=root)
            else:
                self.ledger.append_block(block_txns, timestamp=self.env.now)
            self.blocks_minted += 1

    def _follower_exec_loop(self, node):
        """Every other node re-executes committed blocks serially.

        Under ``batched_validation`` the follower charges the same
        ablation model as the leader: per-txn EVM re-execution plus one
        batched MPT commit per block at the leader's *measured* hash
        delta (consumed in block order from the delta stream).
        """
        applied = self.group.replicas[node.name].applied
        evm = self.evm_threads[node.name]
        deltas = self._delta_streams.get(node.name)
        # engine mode charges node I/O per measured hash (plus node_ops
        # at index_node_op, mirroring the leader); the legacy
        # batched_validation ablation charges the crypto share only
        if self._engine_mode:
            def charge(hashes, node_ops):
                return self.costs.index_commit_time(hashes, node_ops)
        else:
            def charge(hashes, node_ops):
                return self.costs.mpt_commit_time(hashes)
        while True:
            _index, item = yield applied.get()
            blocks = item if isinstance(item, list) and item \
                and isinstance(item[0], list) else [item]
            for block_txns in blocks:
                if not isinstance(block_txns, list):
                    continue
                if deltas is None:
                    for txn in block_txns:
                        yield evm.serve_event(self.costs.sig_verify
                                              + self._exec_cost(txn))
                else:
                    for txn in block_txns:
                        yield evm.serve_event(
                            self.costs.sig_verify
                            + self.costs.evm_exec_time(txn.payload_size))
                    delta, node_ops = yield deltas.get()
                    yield evm.serve_event(charge(delta, node_ops))

    # -- queries ---------------------------------------------------------------------------------

    def submit_query(self, txn: Transaction) -> Event:
        done = self.env.event()
        self.spawn(self._do_query(txn, done), name="quorum-query")
        return done

    def _do_query(self, txn: Transaction, done: Event):
        txn.submitted_at = self.env.now
        server = self._pick_round_robin(self.servers)
        yield self.client_node.nic_out.serve_event(
            self.costs.net_send_overhead + self.costs.transfer_time(192))
        yield self.env.timeout(self.costs.net_latency)
        pool = getattr(server, "_query_pool", None)
        if pool is None:
            pool = Resource(self.env, self.costs.quorum_query_pool)
            server._query_pool = pool
        req = pool.request()
        yield req
        try:
            yield self.env.timeout(self.costs.quorum_query_time)
            for op in txn.ops:
                self.state.get(op.key)
        finally:
            pool.release(req)
        yield server.nic_out.serve_event(
            self.costs.net_send_overhead
            + self.costs.transfer_time(128 + txn.payload_size))
        yield self.env.timeout(self.costs.net_latency)
        txn.mark_committed()
        done.succeed(txn)
