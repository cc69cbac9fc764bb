"""Serializability checking of committed histories.

Builds the multi-version serialization graph (MVSG) of a committed
execution from the transactions' read/write sets and version stamps, and
checks it for cycles — an independent, after-the-fact verification that
a system's concurrency control actually produced a serializable history
(the correctness side of the paper's Section 3.2 trade-off).

Nodes are committed transactions; edges:

* **wr** (reads-from): Ti wrote version v of x, Tj read v -> Ti -> Tj
* **ww** (version order): Ti wrote version v, Tj wrote v' > v -> Ti -> Tj
* **rw** (anti-dependency): Tj read version v of x, Ti wrote v' > v
  -> Tj -> Ti

Acyclicity is equivalent to (view) serializability given a total version
order per key, which the versioned stores in this library guarantee.

Only the **reduced MVSG** is built: ww between adjacent versions, wr as
above, rw from a reader only to the *first* later writer of the key that
is not the reader.  A dropped rw edge is that edge plus ww steps, so
reduced ⊆ full ⊆ closure(reduced): the graphs are acyclic together,
share the reduced graph's topological orders and have the same strongly
connected components (SCCs).  Kahn's algorithm decides a history in
O((R + W) log W) for R reads and W writes; ``edge_count`` counts reduced
edges, ``equivalent_order`` is one equivalent serial order.  An acyclic
history stops there.  Otherwise Tarjan's SCCs give one shortest witness
cycle per non-trivial SCC (BFS from its smallest txn id, ``graph.py``;
``cycles``, ``cycle`` the first) and exact, uncapped counts read off
the version chains ("later" is later in a key's chain; rw edges are
full-MVSG edges):

* **lost_update** — per ``(Ti, Tj, key)``: Tj read and wrote ``key``,
  read a version older than Ti's write and installed its own after it.
  O(log W) per read, a difference of two chain positions.
* **write_skew** — per *pivot*: a txn with an incoming rw edge on key
  ``a`` and an outgoing one on ``b != a``, both from/to its own SCC
  (Fekete's dangerous structure, read-only anomaly included).  The later
  writers in a reader's SCC are a prefix of the chain (each reaches the
  next by ww), so an outgoing edge is one bisect per read and an
  incoming one a lookup of the lowest version its SCC read of the key.
* **fractured_read** — per ``(reader, writer)``: the reader saw one of
  the writer's keys and missed a later write of another.  O(r^2) for a
  reader of r keys.
* **other** — per non-trivial SCC with none of the three above.

Each of the first three closes a cycle on its own (rw one way, a ww or
wr path back), so it lies inside one SCC and counts mean the same thing
at every history size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from ..txn.transaction import Transaction, TxnStatus
from . import graph

__all__ = ["ANOMALY_KINDS", "HistoryChecker", "SerializabilityReport"]

#: Anomaly classes counted for a non-serializable history.
ANOMALY_KINDS = ("lost_update", "write_skew", "fractured_read", "other")

# Sorts after every txn id: ``bisect_right(chain, (v, _ANY_TXN))`` is the
# position of the first ``(stamp, txn_id)`` of a version chain with
# ``stamp > v``.
_ANY_TXN = float("inf")


def zero_anomalies() -> dict[str, int]:
    return {kind: 0 for kind in ANOMALY_KINDS}


@dataclass
class SerializabilityReport:
    """Outcome of a history check."""

    serializable: bool
    txn_count: int
    edge_count: int
    cycle: Optional[list[int]] = None
    equivalent_order: Optional[list[int]] = None
    notes: list[str] = field(default_factory=list)
    #: One shortest witness cycle per non-trivial SCC (``cycle`` is the
    #: first, kept for callers that only want one).
    cycles: list[list[int]] = field(default_factory=list)
    #: Exact count per anomaly class; all-zero when serializable.
    anomalies: dict[str, int] = field(default_factory=zero_anomalies)


class _WriteIndex(NamedTuple):
    """What one pass over a history yields; the graph is built from it."""

    #: Transactions that can be placed.  A writer with neither a commit
    #: version nor per-key stamps has no position in any version chain
    #: and is left out (``notes`` says how many were).
    live: list[Transaction]
    #: key -> its version chain, a sorted list of ``(stamp, txn_id)``.
    writes: dict[str, list[tuple[int, int]]]
    #: ``(key, stamp) -> txn_id``, what a read is resolved against.
    writer_of: dict[tuple[str, int], int]
    notes: list[str]


class HistoryChecker:
    """Accumulates committed transactions and verifies serializability."""

    def __init__(self):
        self._txns: list[Transaction] = []

    def observe(self, txn: Transaction) -> None:
        """Record one finished transaction (aborted ones are ignored)."""
        if txn.status is TxnStatus.COMMITTED:
            self._txns.append(txn)

    def observe_all(self, txns: Iterable[Transaction]) -> None:
        for txn in txns:
            self.observe(txn)

    @staticmethod
    def _write_stamp(txn: Transaction, key: str) -> int:
        """Version installed for ``key`` — per-key stamp when the system
        applied writes at distinct versions (tikv's per-raft-apply
        stamps), else the transaction-wide commit version."""
        per_key = txn.write_versions
        if per_key:
            return per_key.get(key, txn.commit_version)
        return txn.commit_version

    def _index_writes(self) -> _WriteIndex:
        """The one pass over the history that everything starts from."""
        live: list[Transaction] = []
        writes: dict[str, list[tuple[int, int]]] = {}
        writer_of: dict[tuple[str, int], int] = {}
        for txn in self._txns:
            if txn.write_set and txn.commit_version <= 0 \
                    and not txn.write_versions:
                continue
            live.append(txn)
            for key in txn.write_set:
                stamp = self._write_stamp(txn, key)
                writes.setdefault(key, []).append((stamp, txn.txn_id))
                writer_of[(key, stamp)] = txn.txn_id
        notes: list[str] = []
        skipped = len(self._txns) - len(live)
        if skipped:
            notes.append(f"skipped {skipped} txns without commit stamps")
        for versions in writes.values():
            versions.sort()
        return _WriteIndex(live, writes, writer_of, notes)

    @staticmethod
    def _decide(index: _WriteIndex) \
            -> tuple[dict[int, set[int]], int, Optional[list[int]]]:
        """Kahn's algorithm over the reduced MVSG: its adjacency sets,
        edge count and a topological order (``None`` if it has a cycle)."""
        live, writes, writer_of, _notes = index
        succ: dict[int, set[int]] = {txn.txn_id: set() for txn in live}
        for versions in writes.values():
            for (_v1, t1), (_v2, t2) in zip(versions, versions[1:]):
                if t1 != t2:
                    succ[t1].add(t2)
        for txn in live:
            tid = txn.txn_id
            for key, seen in txn.read_set.items():
                writer = writer_of.get((key, seen))
                if writer is not None and writer != tid:
                    succ[writer].add(tid)
                versions = writes.get(key, ())
                i = bisect_right(versions, (seen, _ANY_TXN))
                while i < len(versions) and versions[i][1] == tid:
                    i += 1
                if i < len(versions):
                    succ[tid].add(versions[i][1])
        indegree = dict.fromkeys(succ, 0)
        edges = 0
        for targets in succ.values():
            edges += len(targets)
            for t in targets:
                indegree[t] += 1
        order = [t for t, d in indegree.items() if not d]
        for t in order:     # appended to while iterated: the work queue
            for nxt in succ[t]:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    order.append(nxt)
        return succ, edges, order if len(order) == len(succ) else None

    def _count_anomalies(self, index: _WriteIndex,
                         components: list[list[int]]) -> dict[str, int]:
        """Exact per-class counts over the non-trivial SCCs (docstring)."""
        live, writes, writer_of, _notes = index
        comp_of = {t: c for c, members in enumerate(components)
                   for t in members}
        txns = [t for t in live if t.txn_id in comp_of]
        stamps = {t.txn_id: {k: self._write_stamp(t, k) for k in t.write_set}
                  for t in txns}
        # (key, SCC) -> its two lowest (read version, reader) pairs.
        lowest: dict[tuple[str, int], list[tuple[int, int]]] = {}
        for txn in txns:
            for key, seen in txn.read_set.items():
                pair = lowest.setdefault((key, comp_of[txn.txn_id]), [])
                pair.append((seen, txn.txn_id))
                pair.sort()
                del pair[2:]
        counts = zero_anomalies()
        hit: set[int] = set()
        for txn in txns:
            tid, reads = txn.txn_id, txn.read_set
            c, mine = comp_of[tid], stamps[tid]
            lost, rw_out = 0, set()
            for key, seen in reads.items():
                chain = writes.get(key, ())
                i = bisect_right(chain, (seen, _ANY_TXN))
                if key in mine:     # writers between its read and write
                    lost += max(0, bisect_left(chain, (mine[key], tid)) - i)
                # The later writers of ``key`` in this SCC are a prefix of
                # the chain (each reaches the next by ww), so the first
                # one that is not this txn decides.
                while i < len(chain) and chain[i][1] == tid:
                    i += 1
                if i < len(chain) and comp_of.get(chain[i][1]) == c:
                    rw_out.add(key)
            rw_in = {key for key, stamp in mine.items()
                     if any(seen < stamp for seen, reader
                            in lowest.get((key, c), ()) if reader != tid)}
            pivot = bool(rw_in and rw_out) and len(rw_in | rw_out) > 1
            saw = {writer_of.get((key, seen)) for key, seen in reads.items()}
            fractured = sum(
                any(key in stamps[w] and seen < stamps[w][key]
                    for key, seen in reads.items())
                for w in saw - {None, tid} if w in stamps)
            counts["lost_update"] += lost
            counts["write_skew"] += pivot
            counts["fractured_read"] += fractured
            if lost or pivot or fractured:
                hit.add(c)
        counts["other"] = len(components) - len(hit)
        return counts

    def check(self) -> SerializabilityReport:
        """Verify the observed history: a witness order, or witness cycles
        and per-class anomaly counts (module docstring)."""
        index = self._index_writes()
        succ, edge_count, order = self._decide(index)
        report = SerializabilityReport(
            serializable=order is not None,
            txn_count=len(self._txns),
            edge_count=edge_count,
            equivalent_order=order,
            notes=index.notes,
        )
        if order is not None:
            return report
        components = graph.components(succ)
        report.cycles = [graph.shortest_path(succ, members[0], members[0])[:-1]
                         for members in components]
        report.cycle = report.cycles[0]
        report.anomalies = self._count_anomalies(index, components)
        return report
