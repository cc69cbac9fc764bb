"""Hybrid blockchain-database systems, composed from taxonomy choices.

This is the constructive half of the paper's fusion analysis (Sections
3.5 and 5.6): given a :class:`repro.core.taxonomy.SystemProfile`, build a
*runnable simulated system* out of the same substrates the four
benchmarked systems use — a replication backend (Raft, PBFT, Tendermint,
PoW, or a shared-log ordering service), a concurrency mode (serial / OCC
concurrent-execute-serial-commit / concurrent), an index cost (plain,
MPT, Merkle), and a ledger.  Measuring these hybrids and placing them in
the Figure 15 grid validates the forecast framework against its inputs.

Per-system calibration constants live in ``HYBRID_SPECS`` with the
reported numbers they approximate (see ``core.forecast``).
"""

from __future__ import annotations

from typing import Optional

from ..concurrency.occ import OccSimulator, OccValidator
from ..concurrency.serial import SerialExecutor
from ..consensus.pbft import PbftConfig, PbftGroup
from ..consensus.pow import PowConfig, PowNetwork
from ..consensus.raft import RaftConfig, RaftGroup
from ..consensus.sharedlog import OrderingService, SharedLogConfig
from ..consensus.tendermint import TendermintConfig, TendermintGroup
from ..core.taxonomy import (ConcurrencyModel, SystemProfile,
                             profile as lookup_profile)
from ..crypto.hashing import NULL_HASH
from ..sim.kernel import Environment, Event, subscribe
from ..sim.resources import Resource, Store
from ..txn.ledger import Ledger
from ..txn.transaction import AbortReason
from .base import (QueryRoundTrip, RoundTrip, SystemConfig,
                   TransactionalSystem)

__all__ = ["HybridSystem", "HYBRID_SPECS", "KNOWN_SPEC_KEYS", "build_hybrid"]


class _Submission(RoundTrip):
    """Client submission into the hybrid's ordering backend.

    Service stages: entry-node CPU -> (optional speculative OCC
    simulation) -> backend ordering -> hand-off to the serial commit
    loop.  There is no reply hop: ``done`` travels into the commit
    stream with the transaction, and the commit loop succeeds it after
    the serial apply (a LOGIC abort at simulation, or a failed
    ordering, succeeds it on the spot instead).
    """

    __slots__ = ()

    def request_size(self) -> int:
        return 256 + self.txn.payload_size

    def _arrived(self, _arg) -> None:
        system = self.system
        entry = system._pick_round_robin(system.servers)
        entry.cpu.serve_then(system.costs.store_get, self._entered)

    def _entered(self, _arg) -> None:
        system = self.system
        txn = self.txn
        if system.profile.concurrency is \
                ConcurrencyModel.CONCURRENT_EXECUTION_SERIAL_COMMIT:
            # speculative execution before ordering (Fabric/Veritas style)
            system.simulator.simulate(txn)
            if txn.abort_reason is AbortReason.LOGIC:
                self.done.succeed(txn)
                return
        try:
            ordered = system._proposer(txn, self.request_size())
        except Exception:
            self._order_failed()
            return
        subscribe(ordered, self._ordered)

    def _ordered(self, ev: Event) -> None:
        if not ev._ok:
            self._order_failed()
            return
        self.system._commit_stream.put((self.txn, self.done))

    def _order_failed(self) -> None:
        txn = self.txn
        txn.mark_aborted(AbortReason.COORDINATOR_ABORT)
        self.done.succeed(txn)


#: Backend + commit-path calibration per hybrid (anchored to the numbers
#: the systems' own papers report; see core.forecast.REPORTED_THROUGHPUT).
HYBRID_SPECS: dict[str, dict] = {
    "veritas": {
        "backend": "sharedlog",            # Kafka
        "commit_serial_cost": 40e-6,       # Redis apply + ledger append
        "block_max_items": 256, "block_timeout": 0.05,
    },
    "chainifydb": {
        "backend": "sharedlog",            # Kafka
        "commit_serial_cost": 160e-6,      # whatever-LedgerConsensus replay
        "block_max_items": 128, "block_timeout": 0.1,
    },
    "brd": {
        "backend": "pbft",                 # Kafka + BFT-SMaRt ordering
        "commit_serial_cost": 360e-6,      # PostgreSQL stored-proc replay,
        #   serializable in ledger order
        "batch_window": 0.02, "max_batch": 64,
    },
    "bigchaindb": {
        "backend": "tendermint",
        "commit_serial_cost": 900e-6,      # MongoDB JSON txn apply
        "block_interval": 0.15, "max_block_txns": 512,
    },
    "falcondb": {
        "backend": "tendermint",
        "commit_serial_cost": 170e-6,      # MySQL apply + IntegriDB update
        "block_interval": 0.06, "max_block_txns": 256,
    },
    "blockchaindb": {
        "backend": "pow",
        "commit_serial_cost": 120e-6,      # LevelDB apply behind the chain
        "block_interval": 2.0, "max_block_txns": 400,
    },
}

#: Every key a hybrid ``spec`` may carry (union across backends).  A
#: typo'd key used to run silently with defaults; it now raises.
KNOWN_SPEC_KEYS = frozenset({
    "backend", "commit_serial_cost", "index",
    # sharedlog
    "block_max_items", "block_timeout",
    # pbft
    "batch_window", "max_batch",
    # tendermint / pow
    "block_interval", "max_block_txns", "skip_empty_blocks",
})


class _Query(QueryRoundTrip):
    """One read-only query: a round trip to a round-robin server with
    no NIC egress, then one read per op on its CPU (sequential)."""

    __slots__ = ("server",)

    def _begin(self, _arg) -> None:
        system = self.system
        self.txn.submitted_at = system.env.now
        self.server = system._pick_round_robin(system.servers)
        system.env.after(2 * system.costs.net_latency, self._arrived)

    def _arrived(self, _arg) -> None:
        if self._idx < len(self.txn.ops):
            self.server.cpu.serve_then(self.system.costs.store_get,
                                       self._read)
            return
        self._finish(None)

    def _read(self, _arg) -> None:
        self.system.state.get(self.txn.ops[self._idx].key)
        self._idx += 1
        self._arrived(None)


class HybridSystem(TransactionalSystem):
    """A taxonomy-profile-driven simulated transactional system."""

    storage_engine = "always"
    update_chain = _Submission
    query_chain = _Query

    def __init__(self, env: Environment, profile: SystemProfile,
                 config: Optional[SystemConfig] = None,
                 spec: Optional[dict] = None):
        self.profile = profile
        self.name = profile.name      # before the base config check names it
        super().__init__(env, config)
        self.spec = dict(HYBRID_SPECS.get(profile.name, {}))
        if spec:
            unknown = sorted(set(spec) - KNOWN_SPEC_KEYS)
            if unknown:
                raise ValueError(
                    f"unknown hybrid spec key(s) {unknown}; "
                    f"known: {sorted(KNOWN_SPEC_KEYS)}")
            self.spec.update(spec)
        self.servers = self._new_nodes(self.config.num_nodes, "node")
        # Storage engine from the profile's Table 2 index column (the
        # builder honouring the storage dimension); ``spec["index"]`` or
        # ``extras["index"]`` swap it per run.  The engine's *measured*
        # commit deltas replace the old per-payload index-cost
        # calibration constants: plain indexes charge nothing (their
        # apply work is inside commit_serial_cost), authenticated ones
        # charge index_commit_time(hashes) once per sealed block.
        self._build_state(
            default_index=self.spec.get("index", profile.index))
        self.simulator = OccSimulator(self.state)
        self.validator = OccValidator(self.state)
        self.executor = SerialExecutor(self.state)
        self.ledger = Ledger()
        self.commit_threads = {n.name: Resource(env, 1)
                               for n in self.servers}
        self._version = 0
        self._commit_stream: Store = Store(env)
        self._build_backend()
        self.spawn(self._commit_loop(), name=f"{self.name}-commit")

    # -- backend construction ---------------------------------------------------

    def _build_backend(self) -> None:
        kind = self.spec.get("backend", "raft")
        if kind == "raft":
            self.backend = RaftGroup(
                self.env, self.servers, self.network, self.costs,
                RaftConfig(message_kind=f"raft:{self.name}"), rng=self.rng)
            self._proposer = self.backend.propose
        elif kind == "pbft":
            self.backend = PbftGroup(
                self.env, self.servers, self.network, self.costs,
                PbftConfig(batch_window=self.spec.get("batch_window", 0.01),
                           max_batch=self.spec.get("max_batch", 64),
                           message_kind=f"pbft:{self.name}"),
                rng=self.rng)
            self._proposer = self.backend.propose
        elif kind == "tendermint":
            self.backend = TendermintGroup(
                self.env, self.servers, self.network, self.costs,
                TendermintConfig(
                    block_interval=self.spec.get("block_interval", 0.1),
                    max_block_txns=self.spec.get("max_block_txns", 512),
                    skip_empty_blocks=self.spec.get("skip_empty_blocks",
                                                    False)),
                rng=self.rng)
            self._proposer = self.backend.propose
        elif kind == "pow":
            self.backend = PowNetwork(
                self.env, self.servers, self.network,
                PowConfig(block_interval=self.spec.get("block_interval", 4.0),
                          max_block_txns=self.spec.get("max_block_txns", 500)),
                rng=self.rng)
            self._proposer = self.backend.propose
        elif kind == "sharedlog":
            orderers = self._new_nodes(3, "orderer")
            self.backend = OrderingService(
                self.env, orderers, self.network, self.costs,
                SharedLogConfig(
                    block_max_items=self.spec.get("block_max_items", 128),
                    block_timeout=self.spec.get("block_timeout", 0.1)),
                rng=self.rng)
            self._proposer = self.backend.append
        else:
            raise ValueError(f"unknown backend {kind!r}")

    # -- commit pipeline -----------------------------------------------------------------

    def _commit_loop(self):
        """Apply ordered transactions on the local database, in order.

        Committed writes mirror into the storage engine via the state
        facade; every 64 versions the engine folds in one batched commit
        whose *measured* digest delta is charged on the commit thread —
        zero for plain indexes, so the authenticated-vs-plain gap is
        exactly the engine's hash work (Fig. 12 on any backend).
        """
        node = self.servers[0]
        thread = self.commit_threads[node.name]
        serial_cost = self.spec.get("commit_serial_cost", 100e-6)
        while True:
            txn, done = yield self._commit_stream.get()
            yield thread.serve_event(serial_cost)
            self._version += 1
            if self.profile.concurrency is \
                    ConcurrencyModel.CONCURRENT_EXECUTION_SERIAL_COMMIT:
                self.validator.validate_and_commit(txn, self._version)
            else:
                self.executor.execute(txn, self._version)
            if self._version % 64 == 0:
                result = self.state.commit(self._version)
                index_cost = (self.costs.index_commit_time(
                    result.hashes_computed, result.node_ops)
                    + self._wal_cost)  # block's group-committed sync
                if index_cost > 0.0:
                    yield thread.serve_event(index_cost)
                self.ledger.append_block(
                    [txn], timestamp=self.env.now,
                    state_root=(result.root if self.engine.authenticated
                                else NULL_HASH))
            done.succeed(txn)


def build_hybrid(env: Environment, name: str,
                 config: Optional[SystemConfig] = None,
                 spec: Optional[dict] = None) -> HybridSystem:
    """Build one of the Table 2 hybrids by name."""
    return HybridSystem(env, lookup_profile(name), config, spec)
