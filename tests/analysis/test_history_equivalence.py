"""The linear decision agrees with the full MVSG it replaced.

``HistoryChecker.check`` decides serializability on the reduced graph
(rw to the next writer only) and builds the full graph just to classify
cycles.  The oracle here is the textbook construction — an rw edge from a
reader to *every* later writer, the loop ``check`` ran before the split —
kept as a reference: on random histories the verdict, the witness order
and the anomaly counts must be what that graph gives, and the full graph
``check`` hands the classifier must be that graph edge for edge, in order
(a capped enumeration reports whichever cycles come first).
"""

from itertools import islice

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.analysis import HistoryChecker, serializability
from repro.analysis.serializability import (_CYCLE_LENGTH_BOUND,
                                            _CYCLE_LIMIT, zero_anomalies)

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


def _reference_witness(graph):
    """Cycles and anomaly counts as ``check`` enumerated them pre-split."""
    cycles = [list(c) for c in islice(
        nx.simple_cycles(graph, length_bound=_CYCLE_LENGTH_BOUND),
        _CYCLE_LIMIT)]
    if not cycles:
        cycles = [[u for u, _v in nx.find_cycle(graph)]]
    anomalies = zero_anomalies()
    for cyc in cycles:
        anomalies[HistoryChecker._classify_cycle(graph, cyc)] += 1
    return cycles, anomalies


@st.composite
def _histories(draw):
    """1-10 committed txns over <= 3 keys: arbitrary read versions,
    distinct commit versions (one may be the unstamped 0), and per-key
    ``write_versions`` on some writers."""
    count = draw(st.integers(min_value=1, max_value=10))
    commits = draw(st.lists(st.integers(min_value=0, max_value=15),
                            min_size=count, max_size=count, unique=True))
    txns = []
    for txn_id, commit in enumerate(commits, start=1):
        reads = draw(st.dictionaries(st.sampled_from(_KEYS), _VERSIONS))
        writes = draw(st.lists(st.sampled_from(_KEYS), unique=True))
        txn = _committed(txn_id, reads, writes, commit)
        if writes and draw(st.booleans()):
            txn.write_versions = draw(st.dictionaries(
                st.sampled_from(writes), _VERSIONS, min_size=1))
        txns.append(txn)
    return txns


@settings(max_examples=200, deadline=None)
@given(_histories())
def test_check_agrees_with_the_full_graph(history):
    checker = HistoryChecker()
    checker.observe_all(history)
    reference = _reference_graph(checker)
    full = checker._build_graph()[0]
    assert list(full.nodes) == list(reference.nodes)
    assert list(full.edges(data=True)) == list(reference.edges(data=True))

    report = checker.check()
    assert report.serializable == nx.is_directed_acyclic_graph(reference)
    if report.serializable:
        position = {t: i for i, t in enumerate(report.equivalent_order)}
        assert sorted(position) == sorted(reference.nodes)
        assert all(position[u] < position[v] for u, v in reference.edges)
        assert report.anomalies == zero_anomalies()
        assert report.cycles == [] and report.cycle is None
    else:
        cycles, anomalies = _reference_witness(reference)
        assert report.cycles == cycles
        assert report.cycle == cycles[0]
        assert report.anomalies == anomalies
        assert report.equivalent_order is None


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


def test_acyclic_history_builds_no_networkx_graph(monkeypatch):
    def no_graph(*_args, **_kwargs):
        raise AssertionError("networkx graph built for an acyclic history")

    checker = HistoryChecker()
    checker.observe_all(_hot_key_history(50))
    monkeypatch.setattr(serializability.nx, "DiGraph", no_graph)
    assert checker.check().serializable


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
    assert not report.capped
