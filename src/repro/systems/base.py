"""Common scaffolding for simulated transactional systems.

Every system model (Quorum, Fabric, TiDB, etcd, TiKV, Spanner, AHL, the
hybrids) subclasses :class:`TransactionalSystem`: it owns a simulation
environment, a cluster of nodes, a network, and exposes ``submit`` /
``submit_query`` returning kernel events that fire when the transaction
completes (committed or aborted).  The workload driver in
:mod:`repro.workloads.driver` is the only component that calls these.
Every per-request chain behind them but Fabric's update subclasses
:class:`RoundTrip`, the client round trip all systems share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..concurrency.rc import ReadCommittedScheduler
from ..concurrency.si import SnapshotScheduler, isolation_level
from ..sim.costs import CostModel, DEFAULT_COSTS
from ..sim.kernel import Environment, Event
from ..sim.network import Network
from ..sim.node import Node
from ..sim.rng import RngRegistry
from ..storage.engine import engine_from_config, parse_index_kind
from ..txn.state import VersionedStore
from ..txn.transaction import Transaction

__all__ = ["EXTRAS_KEYS", "QueryRoundTrip", "RoundTrip", "SystemConfig",
           "TransactionalSystem"]

#: Every ``SystemConfig.extras`` key: ``index`` (Table 2 storage engine),
#: ``wal`` (group-committed journal on that engine), ``isolation``
#: (concurrency level), ``scenario`` (a :class:`repro.chaos.Scenario` the
#: builder arms after construction).
EXTRAS_KEYS = ("index", "isolation", "scenario", "wal")


@dataclass
class SystemConfig:
    """Cluster-level configuration shared by all system models."""

    num_nodes: int = 5           # Table 3 default
    seed: int = 0
    jitter: float = 0.00002      # small network jitter (LAN realism; drives
    #                              Fabric's inconsistent-read aborts and
    #                              IBFT's variance)
    cores_per_node: int = 6      # Xeon E5-1650: 6 cores
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    extras: dict = field(default_factory=dict)

    def derive(self, **overrides) -> "SystemConfig":
        return replace(self, **overrides)


class TransactionalSystem:
    """Base class: config validation, cluster construction, submit interface.

    What a ``SystemConfig.extras`` mapping means on a given model is
    decided here and nowhere else: :meth:`_check_extras` reads the two
    class attributes below, so the builder and a direct constructor call
    reject the same configurations with the same message.
    """

    name = "abstract"
    #: True when ``extras["isolation"]`` has a wired weakened path
    #: ("snapshot" / "read_committed"); "serializable" runs anywhere.
    weak_isolation = False
    #: When the model builds a storage engine: ``"always"`` (a default
    #: Table 2 index that ``extras["index"]`` overrides), ``"on_request"``
    #: (only when ``extras["index"]`` names one; a calibrated fit runs
    #: otherwise) or ``None`` (never: ``index``/``wal`` are rejected).
    storage_engine: Optional[str] = None

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None):
        self.env = env
        self.config = config or SystemConfig()
        self.isolation = self._check_extras()
        self.scheduler = None    # weakened-isolation executor
        self.history = None      # online anomaly checker
        self.engine = None
        self.costs = self.config.costs
        self.rng = RngRegistry(self.config.seed)
        self.network = Network(env, self.costs, rng=self.rng,
                               jitter=self.config.jitter)
        self.nodes: list[Node] = []
        # The client "node" aggregates the driver machines (Caliper / YCSB
        # clients ran on separate hosts), so its NIC is not a bottleneck.
        self.client_node = Node(env, "client",
                                cores=self.config.cores_per_node,
                                costs=self.costs, nic_capacity=8)
        self.network.attach(self.client_node)
        self._round_robin = 0

    # -- configuration --------------------------------------------------------

    def _check_extras(self) -> str:
        """Reject every ``extras`` mapping this model would misread.

        Returns the resolved isolation level.  A key or value that would
        otherwise be dropped silently (typo, index on an engine-less
        model, weakened level with no weak path) raises instead: the
        configuration named is the configuration that runs.
        """
        extras = self.config.extras
        unknown = sorted(set(extras) - set(EXTRAS_KEYS))
        if unknown:
            raise ValueError(f"unknown SystemConfig.extras key(s) {unknown}; "
                             f"known: {list(EXTRAS_KEYS)}")
        level = isolation_level(extras)
        if level != "serializable" and not self.weak_isolation:
            from ..core.builder import DEDICATED_MODELS
            wired = sorted(name for name in DEDICATED_MODELS
                           if DEDICATED_MODELS[name].weak_isolation)
            raise ValueError(
                f"isolation={level!r} is not supported on {self.name!r}; "
                f"weakened isolation is wired into {wired} "
                f"(every system supports 'serializable')")
        if extras.get("index") is not None:
            parse_index_kind(extras["index"])
        asked = [key for key in ("index", "wal") if extras.get(key)]
        if asked and self.storage_engine is None:
            raise ValueError(
                f"extras key(s) {asked} would be ignored: "
                f"{self.name!r} builds no storage engine")
        if asked == ["wal"] and self.storage_engine == "on_request":
            raise ValueError(
                f"`wal` needs an `index` on {self.name!r}: without one "
                f"there is no storage engine to journal")
        return level

    def _build_state(self, default_index=None) -> None:
        """Build ``engine`` + ``state`` and the per-commit WAL share.

        ``extras["index"]`` wins over ``default_index`` (the model's
        Table 2 structure; ``None`` = no engine, the calibrated fit).
        ``_wal_cost`` is the group-committed fsync share the model
        charges once per engine commit when ``extras["wal"]`` is set.
        """
        self.engine = engine_from_config(self.config.extras, default_index)
        self.state = VersionedStore(engine=self.engine)
        self._wal_cost = (self.costs.wal_sync
                          if self.engine is not None
                          and self.engine.wal is not None else 0.0)

    def _wire_isolation(self, store: Optional[VersionedStore] = None) -> None:
        """Attach the weakened-isolation scheduler and the history checker.

        Models with a weak path call this once their state exists: a
        weakened level gets its stage/validate/apply executor over
        ``store`` (models with their own protocol, e.g. percolator,
        pass none), and any config that names a level gets the online
        anomaly checker — default runs skip both.
        """
        if store is not None and self.isolation != "serializable":
            scheduler = (SnapshotScheduler if self.isolation == "snapshot"
                         else ReadCommittedScheduler)
            self.scheduler = scheduler(store)
        if "isolation" in self.config.extras:
            from ..analysis.serializability import HistoryChecker
            self.history = HistoryChecker()

    # -- cluster helpers ------------------------------------------------------

    def _new_node(self, name: str) -> Node:
        node = Node(self.env, name, cores=self.config.cores_per_node,
                    costs=self.costs)
        self.network.attach(node)
        return node

    def _new_nodes(self, count: int, prefix: str) -> list[Node]:
        created = [self._new_node(f"{prefix}{i}") for i in range(count)]
        self.nodes.extend(created)
        return created

    def _pick_round_robin(self, items: list) -> object:
        self._round_robin += 1
        return items[self._round_robin % len(items)]

    # -- the interface driven by the workload driver -----------------------------

    def load(self, records: dict[str, bytes]) -> None:
        """Pre-populate state before measurement (no cost charged).

        Every record lands at version 0 in ``state``, then one engine
        commit folds them (a no-op when the state has no engine).
        """
        self.state.apply_write_set(records, 0)
        self.state.commit(0)

    #: The per-request chains behind :meth:`submit` and
    #: :meth:`submit_query`: each request builds ``chain(self, txn, done)``
    #: and calls its ``start()``.
    update_chain: type
    query_chain: type

    def submit(self, txn: Transaction) -> Event:
        """Run a (possibly updating) transaction.

        The returned event fires with the transaction object once its fate
        is decided; ``txn.status`` and ``txn.phases`` carry the outcome.
        """
        done = self.env.event()
        self.update_chain(self, txn, done).start()
        return done

    def submit_query(self, txn: Transaction) -> Event:
        """Run a read-only transaction (no consensus, per Section 2.1)."""
        done = self.env.event()
        self.query_chain(self, txn, done).start()
        return done

    # -- convenience -----------------------------------------------------------

    def spawn(self, generator, name: str = ""):
        """Start a long-lived loop (a block producer, a peer's commit
        loop) as a :class:`~repro.sim.kernel.Process`.

        For long-lived loops only.  A per-transaction flow, update or
        query, is a slotted chain object whose first stage goes through
        ``env._schedule_call`` where a process bootstrap would: no
        transaction spawns a process.
        """
        return self.env.process(generator, name=name or self.name)

    def _finish(self, ev: Event, txn: Transaction) -> None:
        if not ev.triggered:
            ev.succeed(txn)


class RoundTrip:
    """One client request's round trip, as a flat chain.

    Every system serves a request the same way: client NIC egress ->
    propagation -> the system's own service stages -> reply egress at
    the replying node -> propagation -> ``done`` (Fig. 8's breakdown
    splits this path).  This base owns the envelope; a subclass owns
    only its service stages, entered at :meth:`_arrived` and left
    through :meth:`_reply`, or by settling ``done`` itself when the
    system has no reply hop.  ``start`` takes one scheduled slot, where
    a Process bootstrap would, and each envelope stage issues one
    ``serve_then`` or ``after``.

    What differs between systems is an override, never a flag: the
    request size (``request_bytes``, or :meth:`request_size` when the
    payload rides along), extra work in ``_begin`` (picking a server,
    refusing without a leader) and what :meth:`_finish` settles.
    """

    __slots__ = ("system", "txn", "done", "_idx")

    #: Bytes of the client's request on the wire.
    request_bytes = 96

    def __init__(self, system: TransactionalSystem, txn: Transaction,
                 done: Event):
        self.system = system
        self.txn = txn
        self.done = done
        self._idx = 0           # cursor of a service stage's loop

    def start(self) -> None:
        self.system.env._schedule_call(self._begin, None)

    def request_size(self) -> int:
        return self.request_bytes

    def _begin(self, _arg) -> None:
        system = self.system
        self.txn.submitted_at = system.env.now
        system.client_node.nic_out.serve_then(
            system.costs.net_send_overhead
            + system.costs.transfer_time(self.request_size()),
            self._sent)

    def _sent(self, _arg) -> None:
        self.system.env.after(self.system.costs.net_latency, self._arrived)

    def _arrived(self, _arg) -> None:
        """The first service stage, once the request has landed."""
        raise NotImplementedError

    def _reply(self, node: Node, size: int) -> None:
        system = self.system
        node.nic_out.serve_then(
            system.costs.net_send_overhead + system.costs.transfer_time(size),
            self._responded)

    def _responded(self, _arg) -> None:
        self.system.env.after(self.system.costs.net_latency, self._finish)

    def _finish(self, _arg) -> None:
        self.done.succeed(self.txn)


class QueryRoundTrip(RoundTrip):
    """A read-only query's round trip: no consensus, so the query
    commits when its reply lands (Section 2.1)."""

    __slots__ = ()

    def _finish(self, _arg) -> None:
        self.txn.mark_committed()
        self.done.succeed(self.txn)
