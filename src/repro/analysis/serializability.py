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

Acyclicity of this graph is equivalent to (view) serializability for
histories with a total version order per key — which the versioned
stores in this library guarantee.

The verdict is decided on the **reduced MVSG**: the same nodes, ww
between adjacent versions and wr exactly as above, but rw only from a
reader to the *first* later writer of the key that is not the reader
itself.  Every rw edge dropped (reader to a still later writer) is that
first edge followed by ww steps along the key's version chain, so

    reduced  is a subgraph of  full  is a subgraph of  closure(reduced).

Hence the two graphs are acyclic together, and any topological order of
the reduced graph is one of the full graph.  The reduced graph has at
most one edge per write and two per read and is sorted by Kahn's
algorithm over plain adjacency sets, so a serializable history is
checked in O((reads + writes) log writes) without a networkx object;
the full graph — quadratic in the versions of a hot key — is built only
for a history that has a cycle, as the classifier's input.  In the
report, ``edge_count`` is the edge count of the reduced graph (the one
the verdict was decided on) in both outcomes, and ``equivalent_order``
is a serial order the history is equivalent to, not the only one.

For a history that is not serializable, :meth:`HistoryChecker.check`
enumerates the minimal (simple) cycles of the full graph — every one of
length <= 6, up to 10,000, after which the report is marked ``capped`` —
and classifies each into the classic weak-isolation anomalies, so runs
under ``extras["isolation"]`` report *which* hazards a level admitted,
not just that one exists:

* **lost update** — a 2-cycle carrying both an rw and a ww edge: two
  transactions read the same version of an item and both overwrote it.
* **write skew** — two consecutive rw (anti-dependency) edges somewhere
  in the cycle: the SI-only hazard (disjoint writes from a shared
  snapshot).
* **fractured read** — a cycle mixing rw with wr: a reader observed one
  transaction's write but missed another (non-repeatable / fractured
  visibility).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, NamedTuple, Optional

import networkx as nx

from ..txn.transaction import Transaction, TxnStatus

__all__ = ["ANOMALY_KINDS", "HistoryChecker", "SerializabilityReport"]

#: Anomaly classes reported per-cycle (plus a catch-all).
ANOMALY_KINDS = ("lost_update", "write_skew", "fractured_read", "other")

# Cycle enumeration bounds: anomalies manifest as short cycles (2-3 for
# the canonical hazards); the bound keeps simple_cycles polynomial on the
# dense graphs a contended run produces.
_CYCLE_LENGTH_BOUND = 6
_CYCLE_LIMIT = 10_000

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
    #: Every minimal cycle found (``cycle`` is the first, kept for
    #: callers that only want a witness).
    cycles: list[list[int]] = field(default_factory=list)
    #: Cycle count per anomaly class; all-zero when serializable.
    anomalies: dict[str, int] = field(default_factory=zero_anomalies)
    #: The enumeration stopped at its cap: ``anomalies`` is a lower bound.
    capped: bool = False

    @property
    def anomaly_count(self) -> int:
        return sum(self.anomalies.values())


class _WriteIndex(NamedTuple):
    """What one pass over a history yields; both graphs are built from it."""

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
        """The one pass over the history that both graphs start from."""
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
    def _decide(index: _WriteIndex) -> tuple[int, Optional[list[int]]]:
        """Kahn's algorithm over the reduced MVSG (module docstring).

        Returns the reduced graph's edge count and a topological order of
        it, or ``None`` for the order when nodes are left over — a cycle.
        """
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
        return edges, order if len(order) == len(succ) else None

    def _build_graph(self, index: Optional[_WriteIndex] = None) \
            -> tuple[nx.DiGraph, list[str]]:
        """The full MVSG as a networkx graph: the cycle classifier's input.

        Node and edge insertion order decide which cycles a capped
        enumeration reports, so they are part of this function's contract.
        """
        if index is None:
            index = self._index_writes()
        live, writes, writer_of, notes = index
        graph = nx.DiGraph()
        for txn in live:
            graph.add_node(txn.txn_id)

        def add_edge(t1, t2, kind, key):
            data = graph.get_edge_data(t1, t2)
            if data is None:
                # ``kind`` keeps the first-discovered dependency for
                # existing callers; ``kinds`` accumulates every parallel
                # dependency between the pair for anomaly classification.
                graph.add_edge(t1, t2, kind=kind, kinds={kind}, key=key)
            else:
                data["kinds"].add(kind)

        # ww edges along each key's version chain
        for key, versions in writes.items():
            for (v1, t1), (v2, t2) in zip(versions, versions[1:]):
                if t1 != t2:
                    add_edge(t1, t2, "ww", key)
        # wr and rw edges from read sets
        for txn in live:
            for key, seen_version in txn.read_set.items():
                writer = writer_of.get((key, seen_version))
                if writer is not None and writer != txn.txn_id:
                    add_edge(writer, txn.txn_id, "wr", key)
                versions = writes.get(key, ())
                first_later = bisect_right(versions, (seen_version, _ANY_TXN))
                for _version, later_writer in versions[first_later:]:
                    if later_writer != txn.txn_id:
                        add_edge(txn.txn_id, later_writer, "rw", key)
        return graph, notes

    @staticmethod
    def _classify_cycle(graph: nx.DiGraph, cycle: list[int]) -> str:
        """Label one minimal MVSG cycle with its anomaly class."""
        kindsets = [graph.edges[u, v]["kinds"]
                    for u, v in zip(cycle, cycle[1:] + cycle[:1])]
        has_rw = ["rw" in ks for ks in kindsets]
        if len(cycle) == 2 and any(has_rw) \
                and any("ww" in ks for ks in kindsets):
            return "lost_update"
        n = len(kindsets)
        if any(has_rw[i] and has_rw[(i + 1) % n] for i in range(n)):
            return "write_skew"
        if any(has_rw) and any("wr" in ks for ks in kindsets):
            return "fractured_read"
        return "other"

    def check(self) -> SerializabilityReport:
        """Verify the observed history; includes a witness order or cycle.

        The verdict comes from the reduced graph in time linear in reads
        + writes.  Only a history that has a cycle pays for the full
        graph: it reports *every* minimal cycle (up to a length bound —
        the canonical anomalies are 2-3 cycles — and an enumeration cap,
        flagged when hit) with per-anomaly counts, so a run under weakened
        isolation quantifies what it admitted.
        """
        index = self._index_writes()
        edge_count, order = self._decide(index)
        report = SerializabilityReport(
            serializable=order is not None,
            txn_count=len(self._txns),
            edge_count=edge_count,
            equivalent_order=order,
            notes=index.notes,
        )
        if order is not None:
            return report
        graph, _notes = self._build_graph(index)
        cycles = [list(c) for c in islice(
            nx.simple_cycles(graph, length_bound=_CYCLE_LENGTH_BOUND),
            _CYCLE_LIMIT)]
        if len(cycles) == _CYCLE_LIMIT:
            report.capped = True
            report.notes.append(
                f"cycle enumeration capped at {_CYCLE_LIMIT}; "
                "anomaly counts are a lower bound")
        if not cycles:
            # Every cycle is longer than the bound; fall back to one
            # witness so the report still carries a concrete cycle.
            cycles = [[u for u, _v in nx.find_cycle(graph)]]
            report.notes.append(
                f"no cycle within length {_CYCLE_LENGTH_BOUND}; "
                "reporting one unbounded witness")
        for cyc in cycles:
            report.anomalies[self._classify_cycle(graph, cyc)] += 1
        report.cycle = cycles[0]
        report.cycles = cycles
        return report
