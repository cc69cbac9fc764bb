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
56 us at 10 B -> 2.5 ms at 5000 B per reconstruction);
``extras={"index": "lsm+mpt"}`` runs a real trie instead and charges its
measured per-block commit, stamping a verifiable state root into every
block header.
"""

from __future__ import annotations

from typing import Optional

from ..concurrency.serial import SerialExecutor
from ..consensus.ibft import IbftConfig, IbftGroup
from ..consensus.raft import RaftConfig, RaftGroup
from ..crypto.hashing import NULL_HASH
from ..sim.kernel import Environment, Event, WakeableQueue, subscribe
from ..sim.resources import Resource, Store
from ..txn.ledger import Ledger
from ..txn.transaction import AbortReason, Transaction, TxnStatus
from .base import (QueryRoundTrip, RoundTrip, SystemConfig,
                   TransactionalSystem)

__all__ = ["QuorumSystem"]


class _Submission(RoundTrip):
    """Client submission to the leader txpool.

    Service stages: leader txpool CPU -> mempool put.  ``done`` travels
    into the mempool with the transaction; the block producer settles
    it, so there is no reply hop here.
    """

    __slots__ = ()

    def request_size(self) -> int:
        return 192 + self.txn.payload_size

    def _arrived(self, _arg) -> None:
        system = self.system
        system.servers[0].cpu.serve_then(
            system.costs.quorum_txpool_cpu, self._pooled)

    def _pooled(self, _arg) -> None:
        self.system.mempool.put((self.txn, self.done))


class _Query(QueryRoundTrip):
    """One read-only query: a slot in a round-robin node's query pool,
    held for the query's execution, then the reply from that node."""

    __slots__ = ("server",)

    request_bytes = 192

    def _begin(self, arg) -> None:
        self.server = self.system._pick_round_robin(self.system.servers)
        super()._begin(arg)

    def _arrived(self, _arg) -> None:
        pool = self.system.query_pools[self.server.name]
        subscribe(pool.request(), self._granted)

    def _granted(self, req: Event) -> None:
        system = self.system
        system.env.after(system.costs.quorum_query_time, self._executed, req)

    def _executed(self, req: Event) -> None:
        system = self.system
        for op in self.txn.ops:
            system.state.get(op.key)
        system.query_pools[self.server.name].release(req)
        self._reply(self.server, 128 + self.txn.payload_size)


class QuorumSystem(TransactionalSystem):
    name = "quorum"
    weak_isolation = True
    storage_engine = "on_request"
    update_chain = _Submission
    query_chain = _Query

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None,
                 consensus: str = "raft"):
        super().__init__(env, config)
        if consensus not in ("raft", "ibft"):
            raise ValueError(f"unknown consensus {consensus!r}")
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
        # Storage engine (Table 2 index column).  Without
        # ``extras["index"]`` there is none: every transaction charges
        # the per-record Fig. 11b MPT reconstruction fit.  With one, the
        # real structure runs: EVM-only per-txn cost plus one *measured*
        # index_commit_time charge per block (zero hashes for a plain
        # index — the Fig. 12 ablation), and the ``extras["wal"]``
        # group-committed fsync share rides on that block commit.
        self._build_state()
        self.executor = SerialExecutor(self.state)
        self.mpt_hashes_charged = 0
        # Followers of an authenticated engine re-validate with the same
        # measured crypto: the leader publishes each block's commit delta
        # and a follower blocks on its stream until it is available.
        self._delta_streams: dict[str, Store] = {}
        self.ledger = Ledger()
        # Wake-on-proposal ingress: the block producer parks on this
        # queue while the txpool is empty and is woken by the first
        # arriving transaction at the same simulated time.
        self.mempool: WakeableQueue = WakeableQueue(env)
        # Single-threaded EVM per node.
        self.evm_threads = {n.name: Resource(env, 1) for n in self.servers}
        # Bounded read-only query handlers per node, beside the EVM.
        self.query_pools = {n.name: Resource(env, self.costs.quorum_query_pool)
                            for n in self.servers}
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
        self._wire_isolation(self.state)
        self.spawn(self._block_producer(), name="quorum-producer")
        for node in self.servers[1:]:
            if self.engine is not None and self.engine.authenticated:
                self._delta_streams[node.name] = Store(env)
            self.spawn(self._follower_exec_loop(node),
                       name=f"quorum-exec:{node.name}")

    # -- cost helpers ------------------------------------------------------------------

    def _exec_cost(self, txn: Transaction) -> float:
        """Serial EVM execution (+ fitted MPT path rebuild) per transaction.

        With a configured engine the index cost is *measured* at the
        block commit instead, so only the EVM term is charged here.
        """
        cost = self.costs.evm_exec_time(txn.payload_size)
        if self.engine is not None:
            return cost
        writes = txn.write_keys or [op.key for op in txn.ops]
        per_key_payload = (txn.payload_size // max(1, len(writes))
                           if txn.payload_size else 8)
        for _key in writes:
            cost += self.costs.mpt_update_time(per_key_payload)
        return cost

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
        streams = self._delta_streams.values()
        # With an engine (plain or authenticated) clients get their
        # receipt at the block boundary — both Fig. 12 ablation arms
        # release at the same point, so the A/B gap is *only* the
        # measured index-commit charge — and so does a weakened-isolation
        # block, which installs as a whole.  The fitted default keeps
        # the seed's per-transaction release.
        late_release = self.engine is not None or scheduler is not None
        while True:
            if not self.mempool:
                yield self.mempool.wait()
            yield self.env.timeout(self.costs.quorum_block_interval)
            batch = self.mempool.take(self.costs.quorum_max_block_txns)
            if not batch:
                continue
            proposal_start = self.env.now
            # Both execution phases charge the same per-transaction cost
            # (the "double execution"): EVM + fitted MPT rebuild, or EVM
            # only when the engine's commit is measured per block below.
            exec_costs = [self._exec_cost(txn) for txn, _done in batch]
            # Phase 1: pre-execution at the tip (proposal) — serial, or
            # parallel across cores against the block snapshot.
            if scheduler is None:
                for cost in exec_costs:
                    yield evm.serve_event(cost)
            else:
                yield self.env.all_of([leader.compute(cost)
                                       for cost in exec_costs])
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
            # Writes mirror into the engine via the state facade as
            # they are applied.
            commit_start = self.env.now
            if scheduler is None:
                for (txn, done), cost in zip(batch, exec_costs):
                    yield evm.serve_event(self.costs.sig_verify + cost)
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
                    leader.compute(self.costs.sig_verify + cost)
                    for cost in exec_costs])
                for txn, _done in batch:
                    scheduler.stage(txn)
                for txn, _done in batch:
                    if txn.status is not TxnStatus.ABORTED:
                        self._version += 1
                        scheduler.apply(txn, self._version)
                    if history is not None:
                        history.observe(txn)
            # ONE batched engine commit per block, charged from its
            # measured deltas (Sec. 6: each touched path hashed once per
            # block, not once per write; zero hashes for a plain engine —
            # the authenticated-vs-plain Fig. 12 gap is exactly this)
            # plus the block's group-committed WAL sync.
            result = self.state.commit(self._version)
            root = NULL_HASH
            if result is not None:
                self.mpt_hashes_charged += result.hashes_computed
                for stream in streams:
                    stream.put((result.hashes_computed, result.node_ops))
                index_cost = (self.costs.index_commit_time(
                    result.hashes_computed, result.node_ops)
                    + self._wal_cost)
                if index_cost > 0.0:
                    yield evm.serve_event(index_cost)
                if self.engine.authenticated:
                    root = result.root
            if late_release:
                for txn, done in batch:
                    txn.phases["commit"] = self.env.now - commit_start
                    self._finish(done, txn)
            self.ledger.append_block(block_txns, timestamp=self.env.now,
                                     state_root=root)
            self.blocks_minted += 1

    def _follower_exec_loop(self, node):
        """Every other node re-executes committed blocks serially.

        Behind an authenticated engine the follower charges what the
        leader did: per-txn EVM re-execution plus one index commit per
        block at the leader's *measured* delta (consumed in block order
        from the delta stream).
        """
        applied = self.group.replicas[node.name].applied
        evm = self.evm_threads[node.name]
        deltas = self._delta_streams.get(node.name)
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
                    hashes, node_ops = yield deltas.get()
                    yield evm.serve_event(
                        self.costs.index_commit_time(hashes, node_ops))
