"""Seeded end-to-end RunResult fingerprints across the systems layer.

These are the PR-level equivalence gates for scheduler/consensus hot-path
work (slab scheduler, wake-on-proposal, flat chain objects): a seeded
closed-loop measurement of each system must produce a byte-identical
``RunResult`` before and after any perf refactor.  The points cover every
consensus substrate the systems layer threads proposals into: Raft (etcd,
tikv, quorum), IBFT (quorum), a Raft-backed shared log (fabric, veritas),
Percolator over multi-Raft (tidb), modelled Paxos + trusted 2PC
(spanner), and Tendermint (bigchaindb).

Every DB-side point (etcd, tikv, tidb, spanner) carries a **second seed**
(the ``*-seed23`` entries): a dispatch-order regression that happens to
cancel out at one seed cannot hide behind a single-seed coincidence.

The storage-engine points (PR 5) cover every Table 2 ``IndexKind``
through the pluggable engine layer — swapped engines are outcome-changing
by design (measured index-commit deltas), so each carries its own
fingerprint while the default-config points stay byte-identical to the
pre-engine seed values.

The isolation-spectrum points (PR 8) pin every (system, weakened level)
pair on the ``extras["isolation"]`` axis at the isolation_ablation
table's YCSB-rmw parameters; ``isolation="serializable"`` has no pin of
its own because it must match the default-path pins byte for byte
(asserted by ``tests/integration/test_isolation.py``).

The registry itself lives in :mod:`repro.bench.fingerprints` so the
figure engine verifies the same pins; this module asserts them one by
one against a single engine pass over the ``fingerprints`` figure (the
``fingerprints_report`` fixture) and guards the registry's shape so an
edit can't silently shrink the gate.

A mismatch means simulation *semantics* drifted — event ordering, batch
boundaries, or timer behaviour — not just wall-clock performance.
"""

from __future__ import annotations

import pytest

from repro.bench.fingerprints import CHAOS_DIGESTS, FINGERPRINTS, \
    expected_for_spec, fingerprint_specs, verify_point
from repro.bench.harness import BENCH, SMOKE, run_spec
from repro.bench.sweep import enumerate_grid

_EXPECTED_POINTS = {
    "etcd", "etcd-seed23", "tikv", "tikv-seed23", "quorum", "quorum-ibft",
    "fabric", "tidb-skew", "tidb-skew-seed23", "spanner", "spanner-seed23",
    "veritas", "bigchaindb", "bigchaindb-idleskip", "quorum-lsm",
    "quorum-mpt", "fabric-mbt", "falcondb", "etcd-wal",
    "etcd-si", "etcd-rc", "tikv-si", "tikv-rc", "tidb-si", "tidb-rc",
    "quorum-si", "quorum-rc",
}


def test_registry_shape():
    assert set(FINGERPRINTS) == _EXPECTED_POINTS
    assert len(FINGERPRINTS) == 27


@pytest.mark.parametrize("point", sorted(FINGERPRINTS))
def test_run_point_fingerprint(point, fingerprints_report):
    _overrides, expected = FINGERPRINTS[point]
    observed = \
        fingerprints_report["artifacts"]["fingerprints"]["observed"][point]
    assert observed == expected, f"seeded RunResult drifted for {point}"


def test_artifact_observes_every_pin(fingerprints_report):
    """Every fingerprint point — the eight isolation rows, whose payload
    carries an anomaly report, included — and every chaos point has an
    entry in the artifact: a fingerprint or a digest, never ``None``."""
    observed = fingerprints_report["artifacts"]["fingerprints"]["observed"]
    assert set(observed) == set(FINGERPRINTS) | set(CHAOS_DIGESTS)
    assert len(observed) == 27 + 3
    assert all(value is not None for value in observed.values())
    assert all(observed[name] == CHAOS_DIGESTS[name]
               for name in CHAOS_DIGESTS)


def test_every_fingerprint_spec_matches_its_pin():
    """Canonical matching round-trips: each registry spec finds its pin."""
    specs = fingerprint_specs()
    assert len(specs) == 27 + 3
    for spec in specs:
        pin = expected_for_spec(spec)
        assert pin is not None, f"no pin matched for {spec.label}"
        assert pin[0] == spec.key[0]


def test_pin_matching_covers_the_whole_grid():
    """Every spec of the grid canonicalises — including the fig14 points
    that carry a ``costs=CostModel(...)`` override — and at SMOKE exactly
    the registry plus the weakened isolation_ablation rows hit a pin."""
    assert all(expected_for_spec(spec) is None
               for spec in enumerate_grid(BENCH)
               if spec.figure != "fingerprints")
    matched = {spec.label for spec in enumerate_grid(SMOKE)
               if expected_for_spec(spec) is not None}
    assert matched == {spec.label for spec in fingerprint_specs()} | {
        f"isolation_ablation:ycsb-rmw/{system}/{level}"
        for system in ("etcd", "tikv", "tidb", "quorum")
        for level in ("snapshot", "read_committed")}
    assert len(matched) == 38


def test_verify_point_catches_drift():
    """verify_point passes the true result and flags a perturbed one."""
    spec = next(s for s in fingerprint_specs() if s.key == ("etcd",))
    result = run_spec(spec)
    assert verify_point(spec, result) is None
    result.tps += 1.0
    assert "drifted" in (verify_point(spec, result) or "")
