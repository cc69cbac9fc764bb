"""Template robustness certification against weakened isolation levels.

Decides *statically* — from a workload's transaction templates, before
any run — whether executing it under read committed or snapshot
isolation can ever produce a non-serializable history, à la Fekete et
al.'s dangerous structures and Vandevoort et al.'s "Robustness against
Read Committed for Transaction Templates" (PAPERS.md).  A workload
certified **robust** at a level gets that level's throughput for free:
every execution is still serializable, so the `isolation_ablation`
experiment can label each (workload, level) cell as safe gain vs
anomalies admitted.

Model
-----
A :class:`TxnTemplate` abstracts a transaction program as read/write
sets of ``(keyspace, param)`` atoms: ``keyspace`` partitions the
database (e.g. SmallBank's checking vs savings rows — keys from
different keyspaces never alias), ``param`` names the template
parameter owning the key (keys bound to the same param are the same
key; keys bound to different params *may* alias).  Edges of the static
conflict graph come from unifying one template's read atom with
another's write atom in the same keyspace.

No template is written by hand.  Each workload's ``templates()``
draws one transaction of every shape it generates and abstracts it
with :meth:`TxnTemplate.of`, so the certifier judges the programs the
runs execute: a SmallBank key's keyspace is its row kind and its param
the customer, a YCSB key is its own param.  ``run_point`` and
``run_smallbank_point`` certify those templates at the run's level
whenever the run keeps a history, and ``isolation_ablation`` prints
the predicted class beside the observed counts.

An rw conflict edge T1 -> T2 is **vulnerable** iff the two instances
can both commit while running concurrently.  Under snapshot isolation
that excludes pairs whose conflict unification forces a write-write
overlap — first-committer/first-updater-wins aborts one of an
overlapping concurrent pair, closing the race.  Under read committed
there is no first-committer-wins, so *every* rw edge is vulnerable.
Following Fekete's characterization:

* robust against **snapshot isolation** iff no cycle in the conflict
  graph carries two *consecutive* SI-vulnerable rw edges (the dangerous
  structure behind write skew and the read-only-transaction anomaly);
* robust against **read committed** iff no cycle carries any rw edge
  at all — conservative (sound, may over-reject) but exact for the
  update-heavy templates simulated here, where every classic RC
  counterexample is a lost-update loop.

Both tests run on the template graph itself (nodes are templates, not
instances), so reachability subsumes cycles through any number of
instances of one template.  A walk ``a -> ... -> z`` of vulnerable rw
edges closes iff ``z == a`` or both lie in one non-trivial SCC: one
Tarjan pass (``graph.py``, O(V + E)) decides each walk in O(1), and one
BFS closes the first walk, in sorted order, into the witness cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional

from .graph import components, shortest_path

__all__ = ["TxnTemplate", "RobustnessReport", "certify"]

Atom = tuple[str, str]  # (keyspace, param)


@dataclass(frozen=True)
class TxnTemplate:
    """One transaction program, abstracted to read/write atom sets."""

    name: str
    reads: tuple[Atom, ...] = ()
    writes: tuple[Atom, ...] = ()

    @classmethod
    def of(cls, name: str, txn,
           atom: Callable[[str], tuple[str, Hashable]]) -> "TxnTemplate":
        """Abstract one drawn transaction into its template.

        Reads are ``txn.read_keys`` and writes ``txn.write_keys``: READ
        and UPDATE ops read, UPDATE and WRITE ops write, the rule
        ``read_inputs`` and ``derive_writes`` run by.  ``atom(key)`` is
        ``(keyspace, owner)``; owners become params ``p0, p1, ...`` in
        first-seen order, so keys of one owner share a param.

        >>> from repro.workloads.smallbank import (SmallbankConfig,
        ...                                        SmallbankWorkload)
        >>> bank = SmallbankWorkload(SmallbankConfig(num_accounts=10))
        >>> check = TxnTemplate.of("write_check", bank.write_check("c0"),
        ...                        bank.atom)
        >>> check.reads, check.writes
        ((('checking', 'p0'), ('savings', 'p0')), (('checking', 'p0'),))
        """
        params: dict = {}

        def bind(key: str) -> Atom:
            keyspace, owner = atom(key)
            return keyspace, params.setdefault(owner, f"p{len(params)}")

        return cls(name, tuple(map(bind, txn.read_keys)),
                   tuple(map(bind, txn.write_keys)))


@dataclass
class RobustnessReport:
    """Verdict of one certification run."""

    level: str                       # "read_committed" | "snapshot"
    robust: bool
    templates: tuple[str, ...]
    #: Template names along a witness cycle when not robust.
    counterexample: Optional[list[str]] = None
    #: Anomaly class the witness cycle predicts a run would admit.
    predicted_anomaly: Optional[str] = None


def _conflict_edges(templates: list[TxnTemplate]):
    """Enumerate template-level conflict edges.

    Yields ``(t1, t2, kind, keyspace, si_vulnerable)`` for every
    ordered template pair (self-pairs included: two instances of one
    template) whose atom sets can alias.  ``si_vulnerable`` is only
    meaningful for rw edges; under read committed every rw edge is
    vulnerable regardless.
    """
    for t1 in templates:
        for t2 in templates:
            # rw: a read of t1 unified with a write of t2
            for (ks_r, p_r) in t1.reads:
                for (ks_w, p_w) in t2.writes:
                    if ks_r != ks_w:
                        continue
                    # Unifying the conflict atoms binds t1's p_r to
                    # t2's p_w; under SI the edge is vulnerable unless
                    # that binding already forces a write-write
                    # overlap, which first-committer-wins turns into
                    # an abort.
                    ww_forced = any(
                        (ks1, p_r) in t1.writes and (ks1, p_w) in t2.writes
                        for ks1 in {ks for ks, _ in t1.writes})
                    yield (t1.name, t2.name, "rw", ks_r, not ww_forced)
            # ww / wr: any same-keyspace alias is a possible conflict
            for (ks1, _p1) in t1.writes:
                if any(ks1 == ks2 for ks2, _p2 in t2.writes):
                    yield (t1.name, t2.name, "ww", ks1, False)
                if any(ks1 == ks2 for ks2, _p2 in t2.reads):
                    yield (t1.name, t2.name, "wr", ks1, False)


def _predict_anomaly(level: str, cycle: list[str]) -> str:
    if level == "snapshot":
        return "write_skew"
    # RC witnesses over one or two distinct templates are update loops.
    return "lost_update" if len(set(cycle)) <= 2 else "fractured_read"


def certify(templates: Iterable[TxnTemplate], level: str) -> RobustnessReport:
    """Certify a template set against one isolation level.

    ``level`` is ``"read_committed"`` or ``"snapshot"``
    (``"serializable"`` is trivially robust and accepted for symmetry).
    """
    templates = list(templates)
    names = tuple(t.name for t in templates)
    if level == "serializable":
        return RobustnessReport(level=level, robust=True, templates=names)
    if level not in ("read_committed", "snapshot"):
        raise ValueError(f"unknown isolation level {level!r}")

    # Dicts, not sets: a str set's order (and so the witness) varies by run.
    succ: dict[str, dict[str, None]] = {name: {} for name in names}
    vuln_pairs: set[tuple[str, str]] = set()
    for t1, t2, kind, _keyspace, si_vuln in _conflict_edges(templates):
        succ[t1][t2] = None
        if kind == "rw" and (level == "read_committed" or si_vuln):
            vuln_pairs.add((t1, t2))
    # SCC index per template; a template outside them is its own key.
    scc = {t: i for i, members in enumerate(components(succ)) for t in members}
    pairs = sorted(vuln_pairs)
    if level == "read_committed":
        # Not robust iff some cycle contains a vulnerable rw edge.
        walks = ([a, b] for a, b in pairs)
    else:  # snapshot
        # Fekete dangerous structure: consecutive vulnerable rw edges
        # a -> b -> c on some cycle (c may equal a).
        walks = ([a, b, c] for a, b in pairs for b2, c in pairs if b2 == b)
    counterexample = next((w for w in walks if scc.get(w[-1], w[-1])
                           == scc.get(w[0], w[0])), None)
    if counterexample and counterexample[-1] != counterexample[0]:
        counterexample += shortest_path(
            succ, counterexample[-1], counterexample[0])[1:]

    robust = counterexample is None
    return RobustnessReport(
        level=level, robust=robust, templates=names,
        counterexample=counterexample,
        predicted_anomaly=None if robust
        else _predict_anomaly(level, counterexample))
