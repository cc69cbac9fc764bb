"""TiDB system model: NewSQL — stateless SQL layer over TiKV + percolator.

Architecture (Section 4.1): Placement Driver (timestamp oracle), TiKV as
the replicated storage, and stateless TiDB servers that parse and
schedule SQL.  Snapshot isolation via the percolator protocol: reads at a
start timestamp, then a two-phase commit over storage (prewrite locks
every written key with one *primary* lock; commit installs the commit
timestamp on the primary first).

Performance mechanics reproduced here:

* concurrency-over-replication: many transactions in flight, each paying
  SQL-layer CPU plus two consensus writes (Figure 8's TiDB bars);
* the primary-record **latch**: held across both consensus writes, so a
  hot key serializes waiting transactions — under Zipf theta=1 the
  coordinator spends its time on contention resolution and throughput
  collapses disproportionately to the abort rate (Figure 9, 5461 -> 173);
* write-write conflicts abort *instantly* at prewrite (TiDB's abort-fast
  behaviour the paper contrasts with Spanner's lock waits, Figure 14);
* multi-shard writes span several region groups: more ops per
  transaction -> more 2PC participants -> more overhead (Figure 10).
"""

from __future__ import annotations

from typing import Optional

from ..concurrency.percolator import (PercolatorStore, PrewriteConflict,
                                      TimestampOracle)
from ..sim.kernel import Environment, Event, subscribe
from ..sim.resources import Resource
from ..txn.transaction import AbortReason, OpType
from .base import (QueryRoundTrip, RoundTrip, SystemConfig,
                   TransactionalSystem)
from .tikv import TikvCluster

__all__ = ["TiDBSystem"]


class _Txn(RoundTrip):
    """One snapshot-isolation transaction.

    Service stages: SQL-layer CPU (protocol + parse + compile, parallel
    across cores) on a round-robin TiDB server, the per-op read loop,
    scheduler-latch acquisition in key order, percolator prewrite
    (conflict check under the held latches), the prewrite consensus
    fan-out joined by ``env.all_of``, the primary commit write,
    asynchronous secondaries and the auto-retry backoff loop, then the
    reply from that server.  Latch grants and ``kv_write`` completions
    arrive through the scheduler.

    Fault contract: a prewrite or primary-commit participant that
    fails — e.g. its region leader crashed mid-2PC — aborts the
    transaction cleanly: latches released, percolator locks rolled
    back, ``done`` fired exactly once (late stragglers from the same
    fan-out are absorbed by the join's double-completion guard).
    Known modelling limit: a *surviving* participant's prewrite that
    already replicated keeps its value in the single-version cluster
    state (real Percolator leaves the orphaned data-column write
    invisible without a commit record and lazily garbage-collects it;
    this store has no second version to hide it in).  The window only
    exists under injected crashes, and conflict checks stay sound
    because the store version advanced with the phantom write.
    """

    __slots__ = ("server", "attempts", "start_ts", "commit_ts", "reads",
                 "keys", "primary", "grants", "prewrites", "_cur",
                 "_hist_reads")

    def request_size(self) -> int:
        return 128 + self.txn.payload_size

    # -- SQL-layer ingress -------------------------------------------------

    def _begin(self, arg) -> None:
        self.server = self.system._pick_round_robin(self.system.servers)
        super()._begin(arg)

    def _arrived(self, _arg) -> None:
        system = self.system
        self.attempts = 0
        self.server.cpu.serve_then(
            system.costs.tidb_session_cpu + system.costs.sql_parse
            + system.costs.sql_compile,
            self._sql_ready)

    def _sql_ready(self, _arg) -> None:
        self._attempt_begin()

    # -- one snapshot-isolation attempt ------------------------------------

    def _attempt_begin(self) -> None:
        self.start_ts = self.system.oracle.next()
        self._hist_reads = {} if self.system.history is not None else None
        self.reads = {}
        self.keys = []
        self.grants = []
        self.prewrites = []
        self._idx = 0
        self._next_read()

    def _next_read(self) -> None:
        ops = self.txn.ops
        idx = self._idx
        while idx < len(ops) and ops[idx].op_type not in (OpType.READ,
                                                          OpType.UPDATE):
            idx += 1
        if idx >= len(ops):
            self._execute_logic()
            return
        self._idx = idx
        self.server.cpu.serve_then(
            self.system.costs.store_get, self._read_cpu_done)

    def _read_cpu_done(self, _arg) -> None:
        subscribe(self.system.cluster.kv_read(self.txn.ops[self._idx].key),
                  self._read_done)

    def _read_done(self, ev: Event) -> None:
        key = self.txn.ops[self._idx].key
        value, version = ev._value
        self.txn.read_set[key] = version
        system = self.system
        if system.history is not None:
            # Shadow stamp for the history checker: the shared store mixes
            # raft-apply counters with oracle commit timestamps, so its raw
            # versions are CAS-comparable but not order-coherent.  The
            # shadow clock ticks once per committed transaction, giving the
            # MVSG builder a single coherent version order.
            self._hist_reads[key] = system._hist_versions.get(key, 0)
            owner = system.pstore.lock_owner(key)
            if owner is not None and owner != self.txn.txn_id:
                # The key is mid-commit: this may be the owner's
                # prewritten value, attributable only once the owner's
                # stamp is allocated (a value guard decides then).
                system._hist_pending.setdefault(owner, []).append(
                    (self._hist_reads, key, value))
        self.reads[key] = value if value is not None else b""
        self._idx += 1
        self._next_read()

    def _execute_logic(self) -> None:
        txn = self.txn
        if not txn.derive_writes(self.reads):
            self._after_attempt(False)
            return
        write_set = txn.write_set
        if not write_set:
            # Read-only commit: serializable and snapshot levels give
            # read-only transactions a consistent snapshot, which the
            # single-version store approximates by revalidating that no
            # read was superseded (CAS-style, so the mixed store clock
            # is fine); a conflict retries like a prewrite conflict.
            # Read committed returns the raw sequential reads.
            if (self.system.isolation != "read_committed"
                    and any(self.system.pstore.store.version(key) != seen
                            for key, seen in txn.read_set.items())):
                txn.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
                self._after_attempt(False)
                return
            txn.mark_committed()
            self._after_attempt(True)
            return
        self.keys = sorted(write_set)
        self.primary = self.keys[0]
        self._idx = 0
        self._next_latch()

    def _next_latch(self) -> None:
        if self._idx >= len(self.keys):
            self._prewrite_locks()
            return
        latch = self.system._latch(self.keys[self._idx])
        req = latch.request()
        self._cur = (latch, req)
        subscribe(req, self._latched)

    def _latched(self, _ev: Event) -> None:
        self.grants.append(self._cur)
        self._idx += 1
        self._next_latch()

    def _prewrite_locks(self) -> None:
        system = self.system
        txn = self.txn
        iso = system.isolation
        try:
            system.pstore.prewrite(
                txn.txn_id, self.keys, self.primary, self.start_ts,
                read_versions=txn.read_set if iso == "serializable" else None,
                commit_clock=iso == "snapshot",
                first_committer_wins=iso != "read_committed")
        except PrewriteConflict:
            # Contention resolution: the coordinator resolves the
            # blocking lock *while holding the scheduler latches*, so a
            # hot key serializes the transactions waiting on it
            # (Section 5.3.1).
            system.prewrite_conflicts += 1
            if not system.instant_abort:
                system.env.after(
                    system.costs.tidb_conflict_resolution,
                    self._conflict_resolved)
                return
            self._conflict_abort()
            return
        self._idx = 0
        self._next_prewrite()

    def _conflict_resolved(self, _arg) -> None:
        self._conflict_abort()

    def _conflict_abort(self) -> None:
        self.txn.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
        self._cleanup()
        self._after_attempt(False)

    def _next_prewrite(self) -> None:
        system = self.system
        if self._idx >= len(self.keys):
            subscribe(system.env.all_of(self.prewrites), self._prewritten)
            return
        node = system.cluster.leader_node(self.keys[self._idx])
        system.cluster.store_threads[node.name].serve_then(
            system.costs.percolator_prewrite_cpu, self._prewrite_cpu_done)

    def _prewrite_cpu_done(self, _arg) -> None:
        key = self.keys[self._idx]
        self.prewrites.append(self.system.cluster.kv_write(
            key, self.txn.write_set[key],
            meta={"lock": self.txn.txn_id, "primary": self.primary}))
        self._idx += 1
        self._next_prewrite()

    def _prewritten(self, ev: Event) -> None:
        system = self.system
        if not ev._ok:
            self._participant_abort()
            return
        self.commit_ts = system.oracle.next()
        if system.history is not None:
            # Shadow-stamp at commit_ts allocation, not at install: the
            # prewritten value is already reader-visible, and writers are
            # latch-excluded until the install completes, so this is the
            # point where reads of the new value become attributable.
            system._hist_clock += 1
            stamp = system._hist_clock
            self.txn.write_versions = dict.fromkeys(self.keys, stamp)
            for key in self.keys:
                system._hist_versions[key] = stamp
            for reads, key, seen in system._hist_pending.pop(
                    self.txn.txn_id, ()):
                if self.txn.write_set.get(key) == seen:
                    reads[key] = stamp
        primary_node = system.cluster.leader_node(self.primary)
        system.cluster.store_threads[primary_node.name].serve_then(
            system.costs.percolator_commit_cpu, self._commit_cpu_done)

    def _commit_cpu_done(self, _arg) -> None:
        ev = self.system.cluster.kv_write(
            self.primary, self.txn.write_set[self.primary],
            meta={"commit_ts": self.commit_ts, "primary": True})
        subscribe(ev, self._primary_committed)

    def _primary_committed(self, ev: Event) -> None:
        system = self.system
        txn = self.txn
        if not ev._ok:
            self._participant_abort()
            return
        system.pstore.commit(txn.txn_id, txn.write_set, self.commit_ts)
        txn.commit_version = self.commit_ts
        # Secondary commit records are written asynchronously.
        for key in self.keys[1:]:
            system.cluster.kv_write(key, txn.write_set[key],
                                    meta={"commit_ts": self.commit_ts})
        txn.mark_committed()
        self._cleanup()
        self._after_attempt(True)

    def _participant_abort(self) -> None:
        """A 2PC participant died mid-flight: abort cleanly, once."""
        self.txn.mark_aborted(AbortReason.COORDINATOR_ABORT)
        self._cleanup()
        self._after_attempt(False)

    def _cleanup(self) -> None:
        grants, self.grants = self.grants, []
        for latch, req in grants:
            latch.release(req)
        self.system.pstore.rollback(self.txn.txn_id, self.keys)

    # -- retry loop + response ---------------------------------------------

    def _after_attempt(self, committed: bool) -> None:
        system = self.system
        txn = self.txn
        if committed or txn.abort_reason is AbortReason.LOGIC:
            self._respond()
            return
        self.attempts += 1
        if system.instant_abort or self.attempts > system.retry_limit:
            self._respond()
            return
        # TiDB auto-retry with backoff (burns coordinator time)
        system.retries += 1
        txn.read_set.clear()
        txn.write_set.clear()
        system.env.after(system.costs.tidb_retry_backoff, self._retry)

    def _retry(self, _arg) -> None:
        self._attempt_begin()

    def _respond(self) -> None:
        self._reply(self.server, 128)

    def _finish(self, _arg) -> None:
        history = self.system.history
        if history is not None:
            # Validation is done; hand the checker the shadow-clock read
            # versions instead of the raw mixed-clock ones.
            self.txn.read_set = self._hist_reads
            history.observe(self.txn)
        self.done.succeed(self.txn)


class _Query(QueryRoundTrip):
    """One read-only SQL query.

    Service stages: parse and compile on a round-robin TiDB server,
    then per op, coprocessor client work on that server and a
    leaseholder ``kv_read``, then the reply from that server.  The
    three server stages are stamped into ``txn.phases`` (Fig. 8b's
    query breakdown).
    """

    __slots__ = ("server", "phase_start")

    request_bytes = 128

    def _begin(self, arg) -> None:
        self.server = self.system._pick_round_robin(self.system.servers)
        super()._begin(arg)

    def _arrived(self, _arg) -> None:
        self.phase_start = self.system.env.now
        self.server.cpu.serve_then(self.system.costs.sql_parse, self._parsed)

    def _parsed(self, _arg) -> None:
        now = self.system.env.now
        self.txn.phases["sql-parse"] = now - self.phase_start
        self.phase_start = now
        self.server.cpu.serve_then(self.system.costs.sql_compile,
                                   self._compiled)

    def _compiled(self, _arg) -> None:
        now = self.system.env.now
        self.txn.phases["sql-compile"] = now - self.phase_start
        self.phase_start = now
        self._next_read(None)

    def _next_read(self, _arg) -> None:
        txn = self.txn
        if self._idx < len(txn.ops):
            # Coprocessor client work on the TiDB server dominates the
            # measured "Storage-get" (Fig. 8b: 275 us).
            self.server.cpu.serve_then(260e-6, self._read)
            return
        txn.phases["storage-get"] = self.system.env.now - self.phase_start
        self._reply(self.server, 64 + txn.payload_size)

    def _read(self, _arg) -> None:
        key = self.txn.ops[self._idx].key
        self._idx += 1
        subscribe(self.system.cluster.kv_read(key), self._next_read)


class TiDBSystem(TransactionalSystem):
    name = "tidb"
    weak_isolation = True
    storage_engine = "always"
    update_chain = _Txn
    query_chain = _Query

    def __init__(self, env: Environment, config: Optional[SystemConfig] = None,
                 tidb_servers: Optional[int] = None,
                 tikv_nodes: Optional[int] = None,
                 retry_limit: int = 3,
                 instant_abort: bool = False):
        super().__init__(env, config)
        n = self.config.num_nodes
        self.num_servers = tidb_servers if tidb_servers is not None else n
        self.num_tikv = tikv_nodes if tikv_nodes is not None else n
        self.servers = self._new_nodes(self.num_servers, "tidb")
        self.pd_node = self._new_node("pd")
        self.cluster = TikvCluster(self, self.num_tikv)
        self.oracle = TimestampOracle()
        self.pstore = PercolatorStore(self.cluster.state)
        self.retry_limit = retry_limit
        # When True, a write-write conflict aborts without the latch-held
        # lock-resolution delay and without retries — the "instantly
        # aborts once detecting a conflict" regime of Section 5.5's
        # sharded deployment (Fig. 14).  The default (False) models the
        # full-replication deployment whose latch contention produces the
        # Fig. 9 collapse.
        self.instant_abort = instant_abort
        # TiKV scheduler latches: per-key FIFO, held across prewrite+commit.
        self._latches: dict[str, Resource] = {}
        self.prewrite_conflicts = 0
        self.retries = 0
        # Isolation spectrum (extras["isolation"]): the percolator runs
        # serializable-grade SI by default; "snapshot" drops the
        # read-version revalidation (write skew admitted), and
        # "read_committed" additionally drops first-committer-wins
        # (lost updates admitted, no conflict-resolution stalls).
        self._wire_isolation()
        # History-only shadow clock: ticks once per committed transaction
        # and stamps per-key versions, because the shared store's raw
        # versions mix raft-apply counters with oracle timestamps (fine
        # for CAS-style validation, incoherent as a version *order*).
        self._hist_clock = 0
        self._hist_versions: dict[str, int] = {}
        # Reads that landed in another transaction's prewrite window
        # (value already reader-visible, stamp not yet allocated),
        # keyed by the lock owner; patched when its stamp exists.
        self._hist_pending: dict[int, list] = {}

    # -- helpers ------------------------------------------------------------------

    def _latch(self, key: str) -> Resource:
        latch = self._latches.get(key)
        if latch is None:
            latch = Resource(self.env, 1)
            self._latches[key] = latch
        return latch

    def load(self, records: dict[str, bytes]) -> None:
        self.cluster.load(records)
        self.oracle._ts = max(self.oracle._ts, self.cluster._version)
