"""The one-graph checker agrees with the full MVSG it no longer builds.

``HistoryChecker.check`` builds only the reduced graph (rw to the next
writer only): it decides serializability on it and, for a history with
a cycle, counts anomalies per strongly connected component.  The oracle
here is the textbook construction — an rw edge from a reader to *every*
later writer, the loop ``check`` ran before the split — kept verbatim as
a reference: on random histories the verdict and the witness order must
be what that graph gives, the non-trivial SCC partition must be
networkx's on it, and each anomaly count must equal a brute-force count
over transaction pairs that follows the definitions in the module
docstring.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import HistoryChecker
from repro.analysis.graph import components as scc_components
from repro.analysis.serializability import zero_anomalies

from .test_anomalies import _committed

_KEYS = ("x", "y", "z")
_VERSIONS = st.integers(min_value=0, max_value=12)


def _reference_graph(checker):
    """The full MVSG by exhaustive scan (the pre-split ``_build_graph``)."""
    graph = nx.DiGraph()
    writes, writer_of = {}, {}
    placed = [t for t in checker._txns
              if not (t.write_set and t.commit_version <= 0
                      and not t.write_versions)]
    for txn in placed:
        graph.add_node(txn.txn_id)
        for key in txn.write_set:
            stamp = checker._write_stamp(txn, key)
            writes.setdefault(key, []).append((stamp, txn.txn_id))
            writer_of[(key, stamp)] = txn.txn_id
    for versions in writes.values():
        versions.sort()

    def add_edge(t1, t2, kind, key):
        data = graph.get_edge_data(t1, t2)
        if data is None:
            graph.add_edge(t1, t2, kind=kind, kinds={kind}, key=key)
        else:
            data["kinds"].add(kind)

    for key, versions in writes.items():
        for (_v1, t1), (_v2, t2) in zip(versions, versions[1:]):
            if t1 != t2:
                add_edge(t1, t2, "ww", key)
    for txn in placed:
        for key, seen in txn.read_set.items():
            writer = writer_of.get((key, seen))
            if writer is not None and writer != txn.txn_id:
                add_edge(writer, txn.txn_id, "wr", key)
            for version, later in writes.get(key, ()):
                if version > seen and later != txn.txn_id:
                    add_edge(txn.txn_id, later, "rw", key)
    return graph


def _brute_force_counts(checker, graph):
    """Each anomaly class by its definition, over all transaction pairs.

    O(n^2) and independent of the checker's chain bookkeeping: SCCs come
    from networkx on the full ``graph``, and each structure must lie in
    one of its non-trivial components.
    """
    placed = [t for t in checker._txns if t.txn_id in graph]
    reads_of = {t.txn_id: t.read_set for t in placed}
    stamp = {t.txn_id: {k: checker._write_stamp(t, k) for k in t.write_set}
             for t in placed}
    writer_of = {(k, v): t for t, mine in stamp.items()
                 for k, v in mine.items()}
    components = [c for c in nx.strongly_connected_components(graph)
                  if len(c) > 1]
    comp_of = {t: i for i, c in enumerate(components) for t in c}
    counts, hit = zero_anomalies(), set()

    def found(kind, txn_id):
        assert txn_id in comp_of, f"{kind} at T{txn_id} outside any cycle"
        counts[kind] += 1
        hit.add(comp_of[txn_id])

    for tj in placed:
        j, reads = tj.txn_id, tj.read_set
        for ti in placed:
            i = ti.txn_id
            if i == j:
                continue
            for key, seen in reads.items():
                if key in stamp[j] and key in stamp[i] \
                        and seen < stamp[i][key] \
                        and (stamp[i][key], i) < (stamp[j][key], j):
                    found("lost_update", j)
            saw = any(writer_of.get((k, v)) == i for k, v in reads.items())
            missed = any(k in stamp[i] and v < stamp[i][k]
                         for k, v in reads.items())
            if saw and missed:
                found("fractured_read", j)
        if j not in comp_of:
            continue
        peers = [t.txn_id for t in placed
                 if t.txn_id != j and comp_of.get(t.txn_id) == comp_of[j]]
        rw_in = {a for a, v in stamp[j].items() for p in peers
                 if a in reads_of[p] and reads_of[p][a] < v}
        rw_out = {b for b, seen in reads.items() for p in peers
                  if b in stamp[p] and stamp[p][b] > seen}
        if any(a != b for a in rw_in for b in rw_out):
            found("write_skew", j)
    counts["other"] = len(components) - len(hit)
    return counts


@st.composite
def _histories(draw, one_key=False):
    """1-10 committed txns over <= 3 keys (one key per txn if
    ``one_key``): arbitrary read versions, distinct commit versions (one
    may be the unstamped 0), and per-key ``write_versions`` on some
    writers."""
    count = draw(st.integers(min_value=1, max_value=10))
    commits = draw(st.lists(st.integers(min_value=0, max_value=15),
                            min_size=count, max_size=count, unique=True))
    txns = []
    for txn_id, commit in enumerate(commits, start=1):
        keys = (draw(st.sampled_from(_KEYS)),) if one_key else _KEYS
        reads = draw(st.dictionaries(st.sampled_from(keys), _VERSIONS))
        writes = draw(st.lists(st.sampled_from(keys), unique=True))
        txn = _committed(txn_id, reads, writes, commit)
        if writes and draw(st.booleans()):
            txn.write_versions = draw(st.dictionaries(
                st.sampled_from(writes), _VERSIONS, min_size=1))
        txns.append(txn)
    return txns


def _no_graph(*_args, **_kwargs):
    raise AssertionError("history check built a networkx graph")


def _check_without_networkx(history):
    checker = HistoryChecker()
    checker.observe_all(history)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nx, "DiGraph", _no_graph)
        return checker, checker.check()


@settings(max_examples=200, deadline=None)
@given(_histories())
def test_check_agrees_with_the_full_graph(history):
    checker, report = _check_without_networkx(history)
    reference = _reference_graph(checker)
    assert report.serializable == nx.is_directed_acyclic_graph(reference)
    assert report.anomalies == _brute_force_counts(checker, reference)
    if report.serializable:
        position = {t: i for i, t in enumerate(report.equivalent_order)}
        assert sorted(position) == sorted(reference.nodes)
        assert all(position[u] < position[v] for u, v in reference.edges)
        assert report.anomalies == zero_anomalies()
        assert report.cycles == [] and report.cycle is None
        return
    succ, _edges, _order = checker._decide(checker._index_writes())
    components = scc_components(succ)
    assert {frozenset(c) for c in components} == {
        frozenset(c) for c in nx.strongly_connected_components(reference)
        if len(c) > 1}
    assert len(report.cycles) == len(components)
    assert report.cycle == report.cycles[0]
    for cycle, members in zip(report.cycles, components):
        assert cycle[0] == members[0] and len(set(cycle)) == len(cycle)
        assert set(cycle) <= set(members)
        assert all(reference.has_edge(u, v)
                   for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    assert report.equivalent_order is None


@settings(max_examples=200, deadline=None)
@given(_histories(one_key=True))
def test_one_key_per_txn_admits_no_write_skew_or_fractured_read(history):
    """Both structures need two keys in one transaction."""
    _checker, report = _check_without_networkx(history)
    assert report.anomalies["write_skew"] == 0
    assert report.anomalies["fractured_read"] == 0


def _hot_key_history(count):
    """``count`` serial read-modify-writes of the same two keys."""
    return [_committed(i, {"x": i - 1, "y": i - 1}, ["x", "y"], i)
            for i in range(1, count + 1)]


def test_hot_key_history_is_decided_on_a_linear_graph():
    """An exact count, not a wall budget: the full graph of this history
    has an edge for every pair of transactions (1,999,000), the graph the
    verdict is decided on one per adjacent pair."""
    history = _hot_key_history(2_000)
    checker = HistoryChecker()
    checker.observe_all(history)
    report = checker.check()
    assert report.serializable
    reads = sum(len(t.read_set) for t in history)
    writes = sum(len(t.write_set) for t in history)
    assert report.edge_count <= reads + writes
    assert report.equivalent_order == [t.txn_id for t in history]


def test_hot_key_lost_updates_counted_exactly():
    """2,000 updates of x all read the initial version: every earlier
    writer's update is lost to every later one, n(n-1)/2 = 1,999,000
    lost updates in one SCC, counted without enumerating a cycle."""
    n = 2_000
    history = [_committed(i, {"x": 0}, ["x"], i) for i in range(1, n + 1)]
    _checker, report = _check_without_networkx(history)
    assert report.anomalies == {**zero_anomalies(),
                                "lost_update": n * (n - 1) // 2}
    assert len(report.cycles) == 1


def test_unstamped_writers_noted_on_both_outcomes():
    unstamped = [_committed(8, {}, ["x"], 0), _committed(9, {}, ["y"], 0)]
    note = "skipped 2 txns without commit stamps"
    serial = HistoryChecker()
    serial.observe_all(_hot_key_history(3) + unstamped)
    report = serial.check()
    assert report.serializable and note in report.notes
    assert report.txn_count == 5 and len(report.equivalent_order) == 3

    lost_update = HistoryChecker()
    lost_update.observe_all([_committed(1, {"x": 0}, ["x"], 1),
                             _committed(2, {"x": 0}, ["x"], 2)] + unstamped)
    report = lost_update.check()
    assert not report.serializable and note in report.notes
    assert report.anomalies["lost_update"] == 1
