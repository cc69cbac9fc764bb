"""Hyperledger Fabric v2.x system model: execute-order-validate.

Transaction lifecycle (Fig. 3b): the client sends its proposal to every
endorsing peer (the paper's policy endorses at **all** peers); peers
simulate the chaincode concurrently against their *local* committed state
and sign the result; the client compares the returned read sets (aborting
on mismatch — peers commit blocks at different rates, so their states
diverge transiently); the endorsed envelope goes to a 3-orderer Raft
ordering service that cuts blocks of up to 100 transactions or 700 ms;
peers pull blocks and validate serially — per transaction, one signature
verification per endorsement (VSCC) plus the optimistic MVCC read-set
check — then commit the survivors to ledger and state.

Performance mechanics reproduced here:

* peak throughput bounded by the **serial validation pipeline**, whose
  per-transaction cost grows with the endorsement count — hence Table 4's
  decline as peers are added (1560 tps at 3 -> 528 at 19);
* saturated latency explodes as blocks pile up ahead of the serial
  validator (Fig. 8a);
* skew and multi-op transactions abort via read-write conflicts and
  inconsistent endorsements (Figs. 9-10);
* the ledger keeps every envelope: block storage amplification (Fig. 12).
"""

from __future__ import annotations

from typing import Optional

from ..concurrency.occ import OccSimulator, OccValidator, endorsements_consistent
from ..consensus.sharedlog import OrderingService, SharedLogConfig
from ..crypto.hashing import NULL_HASH
from ..sim.kernel import Environment, Event, subscribe
from ..sim.resources import Resource
from ..txn.ledger import Ledger, envelope_size
from ..txn.state import VersionedStore
from ..txn.transaction import AbortReason, Transaction, TxnStatus
from .base import QueryRoundTrip, SystemConfig, TransactionalSystem

__all__ = ["FabricSystem"]


class _Peer:
    """One endorsing/committing peer with its own state and ledger."""

    def __init__(self, system: "FabricSystem", node, state: VersionedStore):
        self.system = system
        self.node = node
        # Writes mirror into the state's storage engine (Table 2 index
        # choice, reference peer only) via the versioned facade; the
        # engine folds once per committed block.
        self.state = state
        self.simulator = OccSimulator(self.state)
        self.validator = OccValidator(self.state)
        self.ledger = Ledger()
        self.validation_thread = Resource(system.env, 1)
        self.query_pool = Resource(system.env,
                                   system.costs.fabric_query_pool)
        self.blocks_committed = 0


class _Endorsement:
    """Proposal simulation + endorsement at one peer, as a flat chain.

    The hottest fan-out in the Fabric model (one per transaction per
    endorsing peer).  Each stage parks a single callback on its event —
    client NIC egress, propagation, peer CPU, response NIC egress,
    propagation — issuing the identical schedule sequence the spawned
    ``_endorse_at`` coroutine did; :attr:`done` is succeeded through the
    scheduler exactly where the endorsement process's completion event
    landed, so the client's ``AllOf`` barrier sees no difference.
    """

    __slots__ = ("system", "peer", "txn", "out", "done", "result")

    def __init__(self, system: "FabricSystem", peer: _Peer,
                 txn: Transaction, out: list):
        self.system = system
        self.peer = peer
        self.txn = txn
        self.out = out
        self.done = Event(system.env)
        self.result = None

    def start(self) -> Event:
        self.system.env._schedule_call(self._send_proposal, None)
        return self.done

    def _send_proposal(self, _arg) -> None:
        system = self.system
        size = 256 + self.txn.payload_size
        system.client_node.nic_out.serve_then(
            system.costs.net_send_overhead + system.costs.transfer_time(size),
            self._proposal_sent)

    def _proposal_sent(self, _arg) -> None:
        system = self.system
        system.env.after(system.costs.net_latency, self._proposal_arrived)

    def _proposal_arrived(self, _arg) -> None:
        system = self.system
        self.peer.node.cpu.serve_then(
            system.costs.sig_verify + system.costs.fabric_simulate
            + system.costs.fabric_endorse,
            self._simulated)

    def _simulated(self, _arg) -> None:
        # Simulate against this peer's local committed state.
        system = self.system
        txn = self.txn
        probe = Transaction(ops=txn.ops, client=txn.client, logic=txn.logic)
        read_set = self.peer.simulator.simulate(probe)
        self.result = (read_set, probe)
        self.peer.node.nic_out.serve_then(
            system.costs.net_send_overhead
            + system.costs.transfer_time(512 + txn.payload_size),
            self._response_sent)

    def _response_sent(self, _arg) -> None:
        system = self.system
        system.env.after(system.costs.net_latency, self._response_arrived)

    def _response_arrived(self, _arg) -> None:
        # Appended here — not at simulation time — because completion
        # order decides which endorsement's rw-set the client adopts.
        self.out.append(self.result)
        self.done.succeed()


class _Update:
    """One transaction's execute-order-validate update, as a flat chain.

    Endorse at every endorsing peer (one :class:`_Endorsement` each,
    joined) -> compare the read sets and adopt the endorsed rw-set ->
    client NIC egress of the envelope -> propagation -> ordering ->
    the reference peer's commit, one parked callback per stage.  The
    exits are the commit, ``INCONSISTENT_READ``, ``LOGIC`` and a failed
    ordering append (``COORDINATOR_ABORT``); each succeeds :attr:`done`
    with the transaction.

    The endorsement results (probe transactions and read sets) are
    dropped as soon as the rw-set is adopted.  A saturated peer keeps
    thousands of transactions waiting for ordering and commit, and
    whatever those waiting chains reference is the cyclic GC's live set.
    """

    __slots__ = ("system", "txn", "done", "results", "wire", "commit_ev")

    def __init__(self, system: "FabricSystem", txn: Transaction, done: Event):
        self.system = system
        self.txn = txn
        self.done = done
        self.results = None
        self.wire = 0
        self.commit_ev = None

    def start(self) -> None:
        self.system.env._schedule_call(self._endorse, None)

    def _endorse(self, _arg) -> None:
        system = self.system
        txn = self.txn
        txn.submitted_at = system.env.now
        results = self.results = []
        jobs = []
        for peer in system.peers[:system.endorsement_policy]:
            jobs.append(_Endorsement(system, peer, txn, results).start())
        subscribe(system.env.all_of(jobs), self._endorsed)

    def _endorsed(self, _join) -> None:
        system = self.system
        txn = self.txn
        now = system.env.now
        txn.phases["execute"] = now - txn.submitted_at
        # Nothing after this stage reads the endorsements: drop them.
        results, self.results = self.results, None
        if not endorsements_consistent([rs for rs, _probe in results]):
            system.inconsistent_aborts += 1
            txn.mark_aborted(AbortReason.INCONSISTENT_READ)
            self.done.succeed(txn)
            return
        # Adopt the endorsed rw-set; a logic abort surfaces here too.
        probe = results[0][1]
        if probe.abort_reason is AbortReason.LOGIC:
            txn.mark_aborted(AbortReason.LOGIC)
            self.done.succeed(txn)
            return
        txn.read_set = dict(probe.read_set)
        txn.write_set = dict(probe.write_set)
        txn.phases["_order_start"] = now
        wire = self.wire = envelope_size(txn, system.endorsement_policy,
                                         system.costs.certificate_size,
                                         system.costs.signature_size)
        system.client_node.nic_out.serve_then(
            system.costs.net_send_overhead + system.costs.transfer_time(wire),
            self._sent)

    def _sent(self, _arg) -> None:
        system = self.system
        system.env.after(system.costs.net_latency, self._arrived)

    def _arrived(self, _arg) -> None:
        system = self.system
        self.commit_ev = Event(system.env)
        system._waiters[self.txn.txn_id] = self.commit_ev
        subscribe(system.ordering.append(self.txn, size=self.wire),
                  self._ordered)

    def _ordered(self, ev: Event) -> None:
        if not ev._ok:
            self.system._waiters.pop(self.txn.txn_id, None)
            self.txn.mark_aborted(AbortReason.COORDINATOR_ABORT)
            self.done.succeed(self.txn)
            return
        subscribe(self.commit_ev, self._committed)

    def _committed(self, _ev) -> None:
        self.done.succeed(self.txn)


class _Query(QueryRoundTrip):
    """One read-only query: no ordering (Section 2.1).

    Service stages: a slot in a round-robin peer's query-handler pool,
    held through client authentication, chaincode simulation against
    the peer's state and the endorsement signature (each stamped into
    ``txn.phases``, the Fig. 8b breakdown), then the peer's reply.
    """

    __slots__ = ("peer", "phase_start")

    request_bytes = 256

    def _begin(self, arg) -> None:
        self.peer = self.system._pick_round_robin(self.system.peers)
        super()._begin(arg)

    def _arrived(self, _arg) -> None:
        subscribe(self.peer.query_pool.request(), self._granted)

    def _granted(self, req: Event) -> None:
        env = self.system.env
        self.phase_start = env.now
        env.after(self.system.costs.fabric_client_auth, self._authenticated,
                  req)

    def _authenticated(self, req: Event) -> None:
        env = self.system.env
        self.txn.phases["authentication"] = env.now - self.phase_start
        self.phase_start = env.now
        env.after(self.system.costs.fabric_simulate, self._simulated, req)

    def _simulated(self, req: Event) -> None:
        env = self.system.env
        txn = self.txn
        for op in txn.ops:
            self.peer.state.get(op.key)
        txn.phases["simulation"] = env.now - self.phase_start
        self.phase_start = env.now
        env.after(self.system.costs.fabric_endorse, self._endorsed, req)

    def _endorsed(self, req: Event) -> None:
        peer = self.peer
        self.txn.phases["endorsement"] = self.system.env.now - self.phase_start
        peer.query_pool.release(req)
        self._reply(peer.node, 256 + self.txn.payload_size)


class _Vscc:
    """One transaction's endorsement check on one of a peer's cores.

    The ``serial_validation=False`` ablation starts one per transaction
    of a block and joins them: a grant on the peer's CPU, the check's
    service time, then :attr:`done` succeeds through the scheduler.
    """

    __slots__ = ("node", "service_time", "done")

    def __init__(self, node, service_time: float):
        self.node = node
        self.service_time = service_time
        self.done = Event(node.env)

    def start(self) -> Event:
        self.node.env._schedule_call(self._begin, None)
        return self.done

    def _begin(self, _arg) -> None:
        self.node.cpu.serve_then(self.service_time, self.done.succeed)


class FabricSystem(TransactionalSystem):
    name = "fabric"
    storage_engine = "on_request"
    update_chain = _Update
    query_chain = _Query

    NUM_ORDERERS = 3  # fixed while peers scale (Section 4.2)

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None,
                 endorsement_policy: Optional[int] = None,
                 serial_validation: bool = True):
        super().__init__(env, config)
        peer_nodes = self._new_nodes(self.config.num_nodes, "peer")
        # Storage engine (Table 2: Fabric v2 = plain LSM, v0.6 = LSM+MBT).
        # An ``extras["index"]`` choice runs the real structure and
        # charges its measured commit deltas once per block.  Only the
        # reference peer carries the engine (replicas would compute the
        # identical structure — pure wall-clock waste).
        self._build_state()
        self.peers = [_Peer(self, node,
                            self.state if i == 0 else VersionedStore())
                      for i, node in enumerate(peer_nodes)]
        # Endorsement policy: how many peers must endorse (default: all).
        self.endorsement_policy = (endorsement_policy
                                   if endorsement_policy is not None
                                   else len(self.peers))
        self.serial_validation = serial_validation
        orderer_nodes = self._new_nodes(self.NUM_ORDERERS, "orderer")
        self.ordering = OrderingService(
            env, orderer_nodes, self.network, self.costs,
            SharedLogConfig(
                block_max_items=self.costs.fabric_block_cut_count,
                block_timeout=self.costs.fabric_block_cut_timeout),
            rng=self.rng)
        # Each peer consumes the block stream (we use local streams plus an
        # explicit per-peer delivery NIC charge, standing in for the
        # gossip-based dissemination of real Fabric).
        self._streams = {}
        for peer in self.peers:
            stream = self.ordering.subscribe_local()
            self._streams[peer.node.name] = stream
            self.spawn(self._peer_commit_loop(peer, stream),
                       name=f"fabric-commit:{peer.node.name}")
        self._waiters: dict[int, Event] = {}
        self.inconsistent_aborts = 0
        self.mvcc_aborts = 0

    # -- loading ------------------------------------------------------------------

    def load(self, records: dict[str, bytes]) -> None:
        for peer in self.peers:
            peer.state.apply_write_set(records, 0)
            peer.state.commit(0)

    # -- peer block validation ----------------------------------------------------------

    def _peer_commit_loop(self, peer: _Peer, stream):
        is_reference = peer is self.peers[0]
        while True:
            block = yield stream.get()
            txns: list[Transaction] = block["items"]
            # Block transfer from orderer to this peer (gossip stand-in).
            wire = 256 + sum(
                envelope_size(t, self.endorsement_policy,
                              self.costs.certificate_size,
                              self.costs.signature_size) for t in txns)
            yield self.env.timeout(self.costs.net_latency
                                   + self.costs.transfer_time(wire))
            deliver_time = self.env.now
            block_version = peer.ledger.height + 1
            committed = []
            vscc = (self.costs.fabric_vscc_per_endorsement
                    * self.endorsement_policy)
            if not self.serial_validation:
                # Ablation: verify the block's endorsements concurrently
                # across the peer's cores (the paper notes serial
                # validation is an implementation choice).
                check = vscc + self.costs.fabric_mvcc_check
                jobs = [_Vscc(peer.node, check).start() for _ in txns]
                if jobs:
                    yield self.env.all_of(jobs)
            for txn in txns:
                if self.serial_validation:
                    yield peer.validation_thread.serve_event(
                        vscc + self.costs.fabric_mvcc_check)
                if is_reference:
                    ok = peer.validator.validate_and_commit(txn, block_version)
                else:
                    # replicas validate their own copy
                    copy = Transaction(ops=txn.ops, client=txn.client)
                    copy.read_set = dict(txn.read_set)
                    copy.write_set = dict(txn.write_set)
                    ok = peer.validator.validate_and_commit(copy, block_version)
                if ok:
                    committed.append(txn)
                    yield peer.validation_thread.serve_event(
                        self.costs.fabric_commit_per_txn)
            # One batched engine commit per block (committed writes were
            # mirrored through the validator); a configured authenticated
            # index charges its measured digest delta on the serialized
            # validation thread — the Fig. 12 gap on the Fabric path.
            result = peer.state.commit(block_version)
            if result is not None:
                index_cost = (self.costs.index_commit_time(
                    result.hashes_computed, result.node_ops)
                    + self._wal_cost)  # block's group-committed sync
                if index_cost > 0.0:
                    yield peer.validation_thread.serve_event(index_cost)
            state_root = (result.root
                          if result is not None and self.engine.authenticated
                          else NULL_HASH)
            peer.ledger.append_block(
                txns, timestamp=self.env.now, state_root=state_root,
                endorsements_per_txn=self.endorsement_policy)
            peer.blocks_committed += 1
            if is_reference:
                for txn in txns:
                    order_start = txn.phases.pop("_order_start", None)
                    if order_start is not None:
                        txn.phases["order"] = deliver_time - order_start
                    txn.phases["validate"] = self.env.now - deliver_time
                    if txn.status is not TxnStatus.COMMITTED:
                        if txn.abort_reason is None:
                            txn.mark_aborted(AbortReason.READ_WRITE_CONFLICT)
                        self.mvcc_aborts += 1
                    waiter = self._waiters.pop(txn.txn_id, None)
                    if waiter is not None and not waiter.triggered:
                        waiter.succeed(txn)

    # -- storage accounting (Fig. 12) ---------------------------------------------------------

    def block_bytes_per_txn(self) -> float:
        ledger = self.peers[0].ledger
        total_txns = ledger.total_txns()
        if total_txns == 0:
            return 0.0
        return ledger.total_bytes(self.costs.certificate_size,
                                  self.costs.signature_size) / total_txns
