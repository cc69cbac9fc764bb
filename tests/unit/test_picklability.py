"""Pickle round-trips for everything the multiprocess sweep ships.

A spawn-context pool pickles each :class:`PointSpec` to a worker and a
:class:`PointResult` back; the worker rebuilds systems from
:class:`SystemConfig` (including ``extras`` payloads like chaos
``Scenario`` objects).  Each round-trip here pins equality after
``pickle.loads(pickle.dumps(...))`` so a new unpicklable field can't
silently break ``--jobs N``.
"""

import pickle

from repro.bench.fingerprints import CHAOS_SCENARIOS, fingerprint_specs
from repro.bench.harness import (BENCH, SMOKE, PointResult, PointSpec,
                                 Scale, _portable_result, run_spec)
from repro.sim.costs import DEFAULT_COSTS
from repro.systems.base import SystemConfig


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_scale_roundtrip():
    for scale in (SMOKE, BENCH, Scale("x", record_count=1, warmup_txns=2,
                                      measure_txns=3, max_sim_time=4.0)):
        assert _roundtrip(scale) == scale


def test_system_config_roundtrip():
    config = SystemConfig(num_nodes=6, seed=23,
                          costs=DEFAULT_COSTS.derive(ahl_reconfig_period=1.0),
                          extras={"index": "lsm+mpt", "wal": True})
    back = _roundtrip(config)
    assert back.num_nodes == config.num_nodes
    assert back.seed == config.seed
    assert back.extras == config.extras
    assert back.costs.ahl_reconfig_period == 1.0


def test_scenario_extras_roundtrip():
    # Chaos scenarios ride in spec params / config extras: the Scenario
    # (with its fault-step objects) must survive a worker hop with its
    # fingerprint intact.
    for name, spec in CHAOS_SCENARIOS.items():
        scenario = spec["scenario"]
        back = _roundtrip(scenario)
        assert back.fingerprint() == scenario.fingerprint(), name
        config = SystemConfig(num_nodes=5, seed=11,
                              extras={"scenario": scenario})
        assert _roundtrip(config).extras["scenario"].fingerprint() \
            == scenario.fingerprint()


def test_point_spec_roundtrip():
    spec = PointSpec(figure="fig14", key=("ahl", 6), runner="ycsb",
                     system="ahl", scale=SMOKE,
                     params=(("mode", "rmw"), ("num_nodes", 6),
                             ("seed", 11)),
                     weight=2.5)
    back = _roundtrip(spec)
    assert back == spec
    assert back.kwargs() == {"mode": "rmw", "num_nodes": 6, "seed": 11}
    # every grid + fingerprint spec must round-trip, not just a sample
    for grid_spec in fingerprint_specs():
        assert _roundtrip(grid_spec) == grid_spec


def test_point_result_roundtrip_from_live_run():
    # The real projection path: run a point, strip it portable, ship it.
    spec = PointSpec(figure="fingerprints", key=("etcd",), system="etcd",
                     scale=SMOKE, params=(("seed", 11),))
    result = run_spec(spec)
    assert isinstance(result, PointResult)
    back = _roundtrip(result)
    assert back == result
    assert back.fingerprint == result.fingerprint


def test_portable_result_carries_no_system_handle():
    # RunResult.extras["system"] is the live simulated cluster — it must
    # never cross a process boundary; _portable_result drops it.
    from repro.bench.harness import run_point
    run = run_point("etcd", scale=Scale("tiny", record_count=500,
                                        warmup_txns=5, measure_txns=40,
                                        max_sim_time=30.0), seed=11)
    assert "system" in run.extras
    spec = PointSpec(figure="t", key=("etcd",))
    portable = _portable_result(spec, run, wall_s=0.1)
    assert _roundtrip(portable) == portable
