"""Tests for measurement utilities."""

import pytest

from repro.sim.metrics import LatencyRecorder, TxnStats, percentile


def test_percentile_nearest_rank():
    values = sorted([10.0, 20.0, 30.0, 40.0, 50.0])
    assert percentile(values, 50) == 30.0
    assert percentile(values, 100) == 50.0
    assert percentile(values, 1) == 10.0


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 150)


def test_latency_recorder_statistics():
    rec = LatencyRecorder()
    for v in (0.1, 0.2, 0.3, 0.4):
        rec.record(v)
    assert rec.count == 4
    assert rec.mean == pytest.approx(0.25)
    assert rec.max == 0.4
    assert rec.pct(50) == pytest.approx(0.2)


def test_latency_recorder_rejects_negative():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(-0.1)


def test_latency_recorder_empty_defaults():
    rec = LatencyRecorder()
    assert rec.mean == 0.0
    assert rec.max == 0.0
    assert rec.pct(99) == 0.0


def test_txn_stats_aggregation():
    stats = TxnStats()
    stats.commit(0.1)
    stats.commit(0.3)
    stats.abort("read-write conflict")
    assert stats.total == 3
    assert stats.committed == 2
    assert stats.abort_rate == pytest.approx(1 / 3)
    assert stats.abort_reasons["read-write conflict"] == 1


def test_txn_stats_phase_latency():
    stats = TxnStats()
    stats.record_phase("order", 0.7)
    stats.record_phase("order", 0.9)
    stats.record_phase("validate", 0.2)
    assert stats.phase_latency["order"].mean == pytest.approx(0.8)
    assert stats.phase_latency["validate"].count == 1


def test_txn_stats_empty_abort_rate():
    assert TxnStats().abort_rate == 0.0


def test_percentile_extremes_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    # p=0: nearest rank clamps to the first sample; p=100: the last.
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile([7.0], 0) == 7.0
    assert percentile([7.0], 100) == 7.0


def test_latency_recorder_sorted_cache_invalidation():
    rec = LatencyRecorder()
    for v in (0.3, 0.1, 0.2):
        rec.record(v)
    assert rec.pct(50) == 0.2
    assert rec._sorted == [0.1, 0.2, 0.3]   # cache built by pct
    rec.record(0.05)                        # must invalidate the cache
    assert rec._sorted is None
    assert rec.pct(50) == 0.1
    assert rec.pct(100) == 0.3
    assert rec.pct(0) == 0.05


def test_latency_recorder_cache_detects_direct_appends():
    rec = LatencyRecorder()
    rec.record(0.2)
    assert rec.pct(50) == 0.2
    rec.samples.append(0.1)                 # behind record()'s back
    assert rec.pct(0) == 0.1


def test_latency_recorder_empty_pct_zero():
    rec = LatencyRecorder()
    assert rec.pct(0) == 0.0
    assert rec.pct(50) == 0.0
    assert rec.pct(100) == 0.0
