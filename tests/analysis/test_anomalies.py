"""Anomaly-classifier unit suite: hand-crafted histories per class.

Each test builds the smallest history that admits exactly one textbook
anomaly (or none) and asserts the per-SCC counter labels it — and only
it.  These are the ground-truth cases the online detector's verdicts on
real runs are calibrated against.
"""

from repro.analysis import HistoryChecker
from repro.analysis.serializability import ANOMALY_KINDS, zero_anomalies
from repro.txn import Op, OpType, Transaction


def _committed(txn_id, reads, writes, version):
    txn = Transaction(ops=[Op(OpType.UPDATE, k, b"") for k in writes])
    txn.txn_id = txn_id
    txn.read_set = dict(reads)
    txn.write_set = {k: b"v" for k in writes}
    txn.commit_version = version
    txn.mark_committed()
    return txn


def _check(*txns):
    checker = HistoryChecker()
    checker.observe_all(txns)
    return checker.check()


def _nonzero(report):
    return {k: v for k, v in report.anomalies.items() if v}


def test_zero_anomalies_shape_matches_kinds():
    assert set(zero_anomalies()) == set(ANOMALY_KINDS)
    assert all(v == 0 for v in zero_anomalies().values())


def test_serial_history_reports_all_zero():
    report = _check(_committed(1, {"x": 0}, ["x"], 1),
                    _committed(2, {"x": 1}, ["x"], 2))
    assert report.serializable
    assert report.anomalies == zero_anomalies()
    assert report.cycles == []


def test_lost_update_classified():
    """Both update x from the same snapshot: the 2-cycle carries rw both
    ways plus the ww chain edge — the defining lost-update shape."""
    report = _check(_committed(1, {"x": 0}, ["x"], 1),
                    _committed(2, {"x": 0}, ["x"], 2))
    assert not report.serializable
    assert _nonzero(report) == {"lost_update": 1}
    assert set(report.cycle) == {1, 2}


def test_write_skew_classified():
    """Disjoint writes, crossed reads from one snapshot: consecutive rw
    edges and no ww edge anywhere in the cycle.  Counted per pivot, and
    each transaction is one (rw in on the key it writes, rw out on the
    key it reads)."""
    report = _check(_committed(1, {"y": 0}, ["x"], 1),
                    _committed(2, {"x": 0}, ["y"], 1))
    assert not report.serializable
    assert _nonzero(report) == {"write_skew": 2}


def test_read_only_write_skew_classified():
    """Fekete's read-only anomaly: the 3-cycle closes only because the
    read-only txn saw T1's write but not T2's — two consecutive rw
    edges, so it classifies as write skew."""
    savings = _committed(1, {"s": 0}, ["s"], 1)
    write_check = _committed(2, {"c": 0, "s": 0}, ["c"], 2)
    balance = _committed(3, {"s": 1, "c": 0}, [], 0)
    report = _check(savings, write_check, balance)
    assert not report.serializable
    assert _nonzero(report) == {"write_skew": 1}
    assert set(report.cycle) == {1, 2, 3}


def test_fractured_read_classified():
    """T2 sees half of T1's atomic write pair (x@1 yes, y@1 no) and
    writes its own key so the wr/rw pair closes a cycle."""
    report = _check(_committed(1, {}, ["x", "y"], 1),
                    _committed(2, {"x": 1, "y": 0}, ["z"], 2))
    assert not report.serializable
    assert _nonzero(report) == {"fractured_read": 1}


def test_all_minimal_cycles_enumerated():
    """Two independent lost-update pairs must both be reported — the
    single-cycle ``report.cycle`` is only the first witness."""
    report = _check(_committed(1, {"x": 0}, ["x"], 1),
                    _committed(2, {"x": 0}, ["x"], 2),
                    _committed(3, {"y": 0}, ["y"], 3),
                    _committed(4, {"y": 0}, ["y"], 4))
    assert not report.serializable
    assert len(report.cycles) == 2
    assert report.cycle == report.cycles[0]
    assert _nonzero(report) == {"lost_update": 2}
    covered = {frozenset(c) for c in report.cycles}
    assert covered == {frozenset({1, 2}), frozenset({3, 4})}


def test_mixed_classes_counted_separately():
    """A lost-update pair and a write-skew pair on disjoint keys land in
    their own buckets; the write-skew pair is two pivots."""
    report = _check(_committed(1, {"x": 0}, ["x"], 1),
                    _committed(2, {"x": 0}, ["x"], 2),
                    _committed(3, {"q": 0}, ["p"], 3),
                    _committed(4, {"p": 0}, ["q"], 3))
    assert _nonzero(report) == {"lost_update": 1, "write_skew": 2}
    assert len(report.cycles) == 2


def test_lost_update_and_fractured_read_in_one_component():
    """T2 sees T1's y but not T1's x, then overwrites x: one SCC carrying
    both structures, each counted once, and not a pivot (every rw edge
    is on x)."""
    report = _check(_committed(1, {"x": 0}, ["x", "y"], 1),
                    _committed(2, {"x": 0, "y": 1}, ["x"], 2))
    assert _nonzero(report) == {"lost_update": 1, "fractured_read": 1}
    assert report.cycles == [[1, 2]]


def test_cycle_without_rw_edges_is_other():
    """Per-key stamps that disagree on the order of two writers: a ww
    cycle with no read in it, so none of the named classes applies."""
    t1 = _committed(1, {}, ["x", "y"], 1)
    t2 = _committed(2, {}, ["x", "y"], 2)
    t1.write_versions = {"x": 1, "y": 4}
    t2.write_versions = {"x": 2, "y": 3}
    report = _check(t1, t2)
    assert not report.serializable
    assert _nonzero(report) == {"other": 1}
