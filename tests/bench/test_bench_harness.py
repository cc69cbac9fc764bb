"""Tests for the benchmark harness and the fast experiment functions.

The heavy sweep experiments are covered by the benchmark suite itself;
here we test the harness plumbing and the two experiments that need no
simulation (fig12, fig13) plus one tiny end-to-end sweep.
"""

import pytest

from repro.bench import (SMOKE, fig12_storage, fig13_ads_overhead,
                         format_experiment, run_figure, run_point,
                         run_smallbank_point)


def test_run_point_returns_result():
    result = run_point("etcd", scale=SMOKE, num_nodes=3)
    assert result.tps > 0
    assert result.measured == SMOKE.measure_txns
    assert result.extras["system"].name == "etcd"


def test_run_point_modes():
    query = run_point("etcd", scale=SMOKE, num_nodes=3, mode="query")
    assert query.tps > 0
    rmw = run_point("etcd", scale=SMOKE, num_nodes=3, mode="rmw")
    assert rmw.tps > 0


def test_run_point_rejects_unknown_mode(monkeypatch):
    # rejected before a cluster is built or a record loaded
    monkeypatch.setattr("repro.bench.harness.build_system", None)
    with pytest.raises(ValueError, match="update, query, rmw"):
        run_point("etcd", scale=SMOKE, mode="delete-everything")


def test_run_smallbank_point():
    result = run_smallbank_point("etcd", scale=SMOKE, num_nodes=3,
                                 num_accounts=2_000)
    assert result.measured == SMOKE.measure_txns
    assert result.tps > 0


def test_scale_derive():
    tiny = SMOKE.derive(measure_txns=10)
    assert tiny.measure_txns == 10
    assert tiny.record_count == SMOKE.record_count


def test_fig12_shapes():
    result = fig12_storage()
    assert result["id"] == "fig12"
    for size in (10, 100, 1000, 5000):
        assert result["measured"]["fabric_block"][size] > \
            result["measured"]["tidb"][size]


def test_fig13_shapes_small():
    result = fig13_ads_overhead(record_sizes=(10,), records=1_000)
    assert result["measured"]["mpt"][10] > 10 * result["measured"]["mbt"][10]


def test_fig15_forecast_only():
    result = run_figure("fig15", simulate=False)
    assert "simulated" not in result
    assert result["ranking"][0] == "veritas"
    assert set(result["forecast"]) == set(result["reported"])


def test_format_helpers_render():
    text = format_experiment({"id": "figX", "measured": {"a": {"b": 1.0}},
                              "note": "hi"})
    assert "figX" in text and "note: hi" in text
