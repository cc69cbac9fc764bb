"""Isolation axis integration: differential pins, config guards, chaos.

The spectrum is only trustworthy if the serializable end of it IS the
default path: routing a run through the isolation-aware schedulers with
``extras={"isolation": "serializable"}`` must reproduce the default
run byte-for-byte on every system that supports the axis.  The guards
then pin the failure modes (typo'd key, unsupported system), and the
chaos test closes the certification loop under faults.
"""

import pytest

from repro.analysis.serializability import zero_anomalies
from repro.bench.experiments import isolation_points
from repro.bench.fingerprints import fingerprint_specs
from repro.bench.harness import (SMOKE, run_point, run_smallbank_point,
                                 run_spec)
from repro.chaos import (NoAnomalies, Partition, Scenario,
                         default_invariants, run_chaos_point)
from repro.core.builder import DEDICATED_MODELS

#: Systems with a wired weakened-isolation path, read off the class
#: attribute the construction-time check itself uses.
WEAK_SYSTEMS = sorted(name for name in DEDICATED_MODELS
                      if DEDICATED_MODELS[name].weak_isolation)


def _fingerprint(result):
    return {
        "tps": repr(result.tps),
        "measured": result.measured,
        "latency": repr(result.stats.latency.mean),
        "aborted": result.stats.aborted,
    }


_POINT_PARAMS = {
    "etcd": {},
    "tikv": {},
    "quorum": {},
    # The skewed rmw point — the one whose retries would expose any
    # scheduler-path divergence the uniform default hides.
    "tidb": {"mode": "rmw", "theta": 0.9, "ops_per_txn": 2},
}


@pytest.mark.parametrize("system", WEAK_SYSTEMS)
def test_explicit_serializable_is_byte_identical_to_default(system):
    """Satellite guarantee: the isolation plumbing (history checker,
    shadow stamps, scheduler dispatch) is observation-only at the
    serializable level — same seed, same fingerprint."""
    params = _POINT_PARAMS[system]
    default = run_point(system, scale=SMOKE, seed=11, **params)
    explicit = run_point(system, scale=SMOKE, seed=11,
                         extras={"isolation": "serializable"}, **params)
    assert _fingerprint(explicit) == _fingerprint(default)
    # ...and the observation itself certifies the default path.
    assert explicit.extras["serializable_history"] is True


def test_read_committed_trades_lost_updates_for_throughput():
    """Hot-account SmallBank on quorum: dropping first-committer-wins
    buys throughput, and the anomaly detector certifies the trade is
    real — lost updates under read-committed, a clean serializable
    history with every anomaly count zero."""
    ser, rc = (run_smallbank_point("quorum", scale=SMOKE, seed=7,
                                   num_accounts=200, theta=0.9,
                                   extras={"isolation": level})
               for level in ("serializable", "read_committed"))
    assert rc.tps > ser.tps, (rc.tps, ser.tps)
    assert rc.extras["anomalies"]["lost_update"] > 0
    assert ser.extras["serializable_history"] is True
    assert all(v == 0 for v in ser.extras["anomalies"].values())


#: Non-zero anomaly counts of the isolation pins: exact and uncapped.
#: etcd, tikv and quorum run ``ycsb-rmw`` with one key per transaction,
#: so write skew (two keys in one pivot) cannot occur there; tidb's rmw
#: point runs two keys per transaction.
_PIN_ANOMALIES = {
    "etcd-rc": {"lost_update": 191},
    "tikv-rc": {"lost_update": 223},
    "tidb-rc": {"lost_update": 333, "write_skew": 34},
    "quorum-rc": {"lost_update": 1218},
    "etcd-si": {},
}


@pytest.mark.parametrize("point", sorted(_PIN_ANOMALIES))
def test_isolation_pin_anomaly_counts(point):
    spec = next(s for s in fingerprint_specs() if s.key == (point,))
    payload = run_spec(spec).payload
    nonzero = _PIN_ANOMALIES[point]
    assert payload["anomalies"] == {**zero_anomalies(), **nonzero}
    assert payload["serializable_history"] is (not nonzero)
    if point != "tidb-rc":
        assert payload["anomalies"]["write_skew"] == 0


#: Rows whose observed classes are more than the certifier's one predicted
#: class (README "Isolation levels", caveats: the read-committed certifier
#: names one class per witness, ``lost_update``, while transactions that
#: read and write two keys also form write-skew pivots — tidb's rmw point
#: runs two keys per transaction, SmallBank's send_payment, write_check
#: and amalgamate touch two rows).
_CLASS_DISAGREEMENTS = {
    ("ycsb-rmw", "tidb", "read_committed"): {"lost_update", "write_skew"},
    ("smallbank", "quorum", "read_committed"): {"lost_update", "write_skew"},
    ("smallbank-mix", "etcd", "read_committed"):
        {"lost_update", "write_skew"},
}


@pytest.mark.parametrize("spec", isolation_points(SMOKE),
                         ids=lambda spec: "/".join(spec.key))
def test_certifier_predicts_the_observed_anomaly_class(spec):
    """Robust cells run clean; every other cell shows exactly the class
    the certifier predicts from the run's own workload templates, except
    the listed rows, which show it too."""
    payload = run_spec(spec).payload
    predicted, anomalies = payload["predicted_anomaly"], payload["anomalies"]
    observed = {kind for kind, count in anomalies.items() if count}
    assert observed == _CLASS_DISAGREEMENTS.get(spec.key, {predicted} - {None})
    assert predicted is None or predicted in observed


def test_typoed_isolation_key_rejected():
    with pytest.raises(ValueError, match="isolaton"):
        run_point("etcd", scale=SMOKE, extras={"isolaton": "snapshot"})


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match="isolation"):
        run_point("etcd", scale=SMOKE,
                  extras={"isolation": "repeatable_read"})


def test_unsupported_system_rejected():
    assert "fabric" not in WEAK_SYSTEMS
    with pytest.raises(ValueError, match="fabric") as err:
        run_point("fabric", scale=SMOKE, extras={"isolation": "snapshot"})
    assert str(WEAK_SYSTEMS) in str(err.value)


# -- chaos: certificates hold under faults ------------------------------------

_SCENARIO = Scenario(
    name="etcd-si-partition",
    steps=(Partition(at=1.0, group_a=("etcd1",),
                     group_b=("etcd0", "etcd2", "etcd3", "etcd4"),
                     until=2.5),),
    settle=2.5)


def test_chaos_no_anomalies_invariant_holds_for_robust_config():
    """The conserved SmallBank mix is certified robust against SI, so
    the no-anomalies invariant must survive a partition storm."""
    res = run_chaos_point(
        "etcd", _SCENARIO, seed=11,
        extras={"wal": True, "isolation": "snapshot"},
        invariants=default_invariants(conserved=True, anomalies=True))
    assert res.ok, f"invariant violations: {res.violations}"
    assert res.checks > 0


def test_chaos_no_anomalies_requires_history_checker():
    """Arming the invariant without the isolation axis is a
    misconfiguration the suite must surface, not silently pass."""
    res = run_chaos_point("etcd", _SCENARIO, seed=11,
                          extras={"wal": True},
                          invariants=[NoAnomalies()])
    assert not res.ok
    assert any("no history checker" in v for v in res.violations)
