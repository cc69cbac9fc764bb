"""Seeded fingerprint registry: the repo's byte-identity equivalence gate.

One module owns every pinned expectation:

* :data:`FINGERPRINTS` — 27 seeded ``RunResult`` projections (SMOKE
  scale, exact float reprs) across every consensus substrate, Table 2
  storage engine, and weakened isolation level.  ``tests/integration/test_run_fingerprints.py``
  asserts them one by one; the multiprocess sweep runner
  (:mod:`repro.bench.sweep`) re-checks any point it executes whose
  canonical identity matches an entry.
* :data:`CHAOS_SCENARIOS` / :data:`CHAOS_DIGESTS` — the three seeded
  chaos runs and their pinned :meth:`ChaosResult.digest` values
  (``tests/chaos/test_chaos_fingerprints.py`` checks repeat-determinism;
  the digests pinned here add cross-run byte-identity).
* :func:`fingerprint_specs` — the registry re-expressed as
  :class:`~repro.bench.harness.PointSpec` records, so
  ``python -m repro.bench fingerprints`` runs the whole gate as one more
  figure of the grid.
* :func:`expected_for_spec` — canonical matching from an arbitrary spec
  back to its pinned expectation, if one exists.

A mismatch means simulation *semantics* drifted — event ordering, batch
boundaries, or timer behaviour — not just wall-clock performance.
"""

from __future__ import annotations

import inspect
from typing import Optional

from ..core.builder import LazyMapping
from .harness import SMOKE, PointResult, PointSpec, run_point

__all__ = ["FINGERPRINTS", "CHAOS_SCENARIOS", "CHAOS_DIGESTS",
           "fingerprint_specs", "expected_for_spec", "run_chaos_spec",
           "verify_point"]

#: (system, run_point overrides) -> exact reprs of the seeded RunResult.
#: Overrides may carry a ``seed`` key (default 11).
FINGERPRINTS = {
    "etcd": (
        dict(),
        {"tps": "14886.968050392341", "measured": 300,
         "latency": "0.003593996233866099", "aborted": 0},
    ),
    "etcd-seed23": (
        dict(seed=23),
        {"tps": "15086.19410627888", "measured": 300,
         "latency": "0.0034337363636792926", "aborted": 0},
    ),
    "tikv": (
        dict(),
        {"tps": "13368.568083358427", "measured": 300,
         "latency": "0.003680662781707489", "aborted": 0},
    ),
    "tikv-seed23": (
        dict(seed=23),
        {"tps": "13228.654035761656", "measured": 300,
         "latency": "0.003683198564910847", "aborted": 0},
    ),
    "quorum": (
        dict(),
        {"tps": "211.07009842368518", "measured": 300,
         "latency": "1.2094360582458945", "aborted": 0},
    ),
    "quorum-ibft": (
        dict(system_kwargs={"consensus": "ibft"}),
        {"tps": "203.58120437878924", "measured": 300,
         "latency": "1.2750026434150334", "aborted": 0},
    ),
    "fabric": (
        dict(),
        {"tps": "1131.4258880742786", "measured": 300,
         "latency": "0.1935465040231532", "aborted": 0},
    ),
    "tidb-skew": (
        dict(theta=0.9, ops_per_txn=2),
        {"tps": "140.44655946251711", "measured": 300,
         "latency": "0.07854862944570291", "aborted": 38},
    ),
    "tidb-skew-seed23": (
        dict(theta=0.9, ops_per_txn=2, seed=23),
        {"tps": "182.64467607020674", "measured": 300,
         "latency": "0.0942598491757825", "aborted": 39},
    ),
    # Spanner: 2 ops/txn so the cross-shard 2PC chain (parallel
    # prepare fan-out -> decision round -> commit fan-out) is exercised,
    # not just the single-shard Paxos write.
    "spanner": (
        dict(num_nodes=6, ops_per_txn=2),
        {"tps": "9407.547763374374", "measured": 300,
         "latency": "0.011013308506666653", "aborted": 0},
    ),
    "spanner-seed23": (
        dict(num_nodes=6, ops_per_txn=2, seed=23),
        {"tps": "9451.093113429522", "measured": 300,
         "latency": "0.010821730319999985", "aborted": 0},
    ),
    "veritas": (
        dict(),
        {"tps": "17238.46382539664", "measured": 300,
         "latency": "0.003157095126561496", "aborted": 0},
    ),
    "bigchaindb": (
        dict(),
        {"tps": "1111.1111111110963", "measured": 300,
         "latency": "0.27375982632021884", "aborted": 0},
    ),
    # Tendermint idle-skip mode (skip_empty_blocks=True) is outcome-
    # changing by design, so it carries its own fingerprint rather than
    # matching the flag-off point above.
    "bigchaindb-idleskip": (
        dict(system_kwargs={"spec": {"skip_empty_blocks": True}}),
        {"tps": "1111.1111111110963", "measured": 300,
         "latency": "0.27394187432021866", "aborted": 0},
    ),
    # ---- storage-engine points (PR 5) ----------------------------------
    # Together with the defaults above, every Table 2 IndexKind carries a
    # seeded fingerprint: LSM (quorum-lsm; also tikv's default engine),
    # BTREE (etcd's default), SKIP_LIST (veritas' profile engine),
    # LSM_MPT (quorum-mpt), LSM_MBT (fabric-mbt), BTREE_MERKLE
    # (falcondb).  The quorum pair is the Fig. 12 ablation: the
    # authenticated MPT point is measurably slower than plain LSM, the
    # gap charged from the engine's measured hashes_computed deltas.
    "quorum-lsm": (
        dict(extras={"index": "lsm"}),
        {"tps": "253.2335638216496", "measured": 300,
         "latency": "1.1846167143957715", "aborted": 0},
    ),
    "quorum-mpt": (
        dict(extras={"index": "lsm+mpt"}),
        {"tps": "248.3648000661745", "measured": 300,
         "latency": "1.2122787892757716", "aborted": 0},
    ),
    "fabric-mbt": (
        dict(extras={"index": "lsm+mbt"}),
        {"tps": "1042.4101946938674", "measured": 300,
         "latency": "0.21218548258315303", "aborted": 0},
    ),
    # FalconDB hybrid: Tendermint backend + B-tree+Merkle overlay engine
    # built straight from its Table 2 profile row.
    "falcondb": (
        dict(),
        {"tps": "2140.6985989574905", "measured": 300,
         "latency": "0.0866140615719453", "aborted": 0},
    ),
    # Group-committed WAL on the DB-side apply path (extras["wal"]).
    "etcd-wal": (
        dict(extras={"wal": True}),
        {"tps": "8264.462809917415", "measured": 300,
         "latency": "0.008071964502307342", "aborted": 0},
    ),
    # ---- isolation-spectrum points (PR 8) ------------------------------
    # Every (system, weakened level) pair on the extras["isolation"] axis
    # carries a seeded pin at the isolation_ablation table's YCSB-rmw
    # parameters, so the in-sweep verifier covers the weak paths too.
    # (isolation="serializable" intentionally has no pin of its own: it
    # must match the default-path pins above byte for byte, which
    # tests/integration/test_isolation.py asserts.)
    "etcd-si": (
        dict(mode="rmw", theta=0.9,
             extras={"isolation": "snapshot"}),
        {"tps": "12040.095468072677", "measured": 300,
         "latency": "0.0034469891348268273", "aborted": 59},
    ),
    "etcd-rc": (
        dict(mode="rmw", theta=0.9,
             extras={"isolation": "read_committed"}),
        {"tps": "14987.67070714441", "measured": 300,
         "latency": "0.0034103279913458295", "aborted": 0},
    ),
    "tikv-si": (
        dict(mode="rmw", theta=0.9,
             extras={"isolation": "snapshot"}),
        {"tps": "13089.889260800555", "measured": 300,
         "latency": "0.003046512534484722", "aborted": 79},
    ),
    "tikv-rc": (
        dict(mode="rmw", theta=0.9,
             extras={"isolation": "read_committed"}),
        {"tps": "13209.891620025905", "measured": 300,
         "latency": "0.003610046163394784", "aborted": 0},
    ),
    "tidb-si": (
        dict(mode="rmw", theta=0.9, ops_per_txn=2,
             extras={"isolation": "snapshot"}),
        {"tps": "116.00953006264842", "measured": 300,
         "latency": "0.10855532476712548", "aborted": 25},
    ),
    "tidb-rc": (
        dict(mode="rmw", theta=0.9, ops_per_txn=2,
             extras={"isolation": "read_committed"}),
        {"tps": "2610.6368714092337", "measured": 300,
         "latency": "0.026763187307412954", "aborted": 0},
    ),
    "quorum-si": (
        dict(mode="rmw", theta=0.9,
             extras={"isolation": "snapshot"}),
        {"tps": "626.6230655081155", "measured": 300,
         "latency": "0.32192393101337247", "aborted": 99},
    ),
    "quorum-rc": (
        dict(mode="rmw", theta=0.9,
             extras={"isolation": "read_committed"}),
        {"tps": "935.2583067285306", "measured": 300,
         "latency": "0.2989892643560763", "aborted": 0},
    ),
}


def _chaos_scenarios() -> dict:
    """The three seeded chaos runs (built lazily; Scenario is heavy)."""
    from ..chaos import (Censor, CrashRestart, GrayNode, LeaderChurn,
                         Partition, Scenario)
    return {
        "etcd-storm": dict(
            system="etcd",
            scenario=Scenario(
                name="etcd-storm",
                steps=(
                    Partition(at=1.0, group_a=("etcd1",),
                              group_b=("etcd0", "etcd2", "etcd3", "etcd4"),
                              until=2.5),
                    GrayNode(at=3.0, node="etcd2", extra_delay=0.002,
                             drop_rate=0.05, until=4.0),
                    CrashRestart(at=4.5, node="etcd0", restart_at=5.5),
                ),
                settle=2.5),
            kwargs=dict(extras={"wal": True})),
        "etcd-churn": dict(
            system="etcd",
            scenario=Scenario(
                name="etcd-churn",
                steps=(LeaderChurn(at=1.0, until=5.0, period=2.0,
                                   downtime=0.5),),
                settle=3.0),
            kwargs=dict(extras={"wal": True})),
        "quorum-censor": dict(
            system="quorum",
            scenario=Scenario(
                name="quorum-censor",
                steps=(Censor(at=1.0, match="", until=4.0),),
                settle=4.0),
            kwargs=dict(system_kwargs={"consensus": "ibft"})),
    }


CHAOS_SCENARIOS = LazyMapping(_chaos_scenarios)

#: Pinned ChaosResult.digest() per seeded scenario (seed 11).  The chaos
#: test suite checks same-process repeat determinism; these pins extend
#: the gate to byte-identity across processes and PRs.
CHAOS_DIGESTS = {
    "etcd-churn":
        "4f9b9d230d9582bdcadb34adc63fcef0593f9cdfbe1672384123712153bb01f8",
    "etcd-storm":
        "08d0a562eee56e42ab778a768050076f2cde27b5d36b9c5d4d34187a6df21ed5",
    "quorum-censor":
        "4e265097f0e3b8ac3f9f10cf8d17661086ddeb2c21c026aa0cb2069f105b6bc9",
}

def _freeze(value):
    """Recursively hashable form of a kwargs value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


#: run_point's keyword defaults, read from its own signature.
_RUN_POINT_KWARGS = {
    name: param.default
    for name, param in inspect.signature(run_point).parameters.items()
    if param.default is not param.empty}


def _canonical_key(system: str, scale, overrides: dict):
    """Hashable identity of one ``run_point`` call.

    ``overrides`` fold over ``run_point``'s keyword defaults, so a spec
    that spells a default out and one that omits it land on the same key.
    """
    return system, _freeze({**_RUN_POINT_KWARGS, **overrides,
                            "scale": scale})


def _registry_by_key() -> dict:
    table = {}
    for point, (overrides, expected) in FINGERPRINTS.items():
        system = point.split("-")[0]
        key = _canonical_key(system, SMOKE, {"seed": 11, **overrides})
        table[key] = (point, expected)
    return table


_BY_KEY = None


def expected_for_spec(spec: PointSpec) -> Optional[tuple]:
    """Return ``(name, expectation)`` if a pin covers this spec.

    YCSB specs are canonicalised (see :func:`_canonical_key`) and looked
    up against the 27 seeded ``RunResult`` projections, all pinned at
    SMOKE scale; chaos specs resolve by scenario name to a pinned
    digest.  Everything else — other scales, other seeds — has no pin
    and returns ``None``.
    """
    global _BY_KEY
    if spec.runner == "chaos":
        name = dict(spec.params).get("name", "")
        digest = CHAOS_DIGESTS.get(name)
        return (name, {"digest": digest}) if digest else None
    if spec.runner != "ycsb":
        return None
    if _BY_KEY is None:
        _BY_KEY = _registry_by_key()
    return _BY_KEY.get(_canonical_key(spec.system, spec.scale, spec.kwargs()))


def verify_point(spec: PointSpec, result: PointResult) -> Optional[str]:
    """Check a finished point against its pin, if any.

    Returns ``None`` when the point has no pin or matches it, else a
    human-readable mismatch description (the sweep turns any non-None
    into a hard failure).
    """
    pin = expected_for_spec(spec)
    if pin is None:
        return None
    name, expected = pin
    if "digest" in expected:
        observed = result.payload.get("digest")
        if observed != expected["digest"]:
            return (f"chaos digest drifted for {name}: "
                    f"{observed} != {expected['digest']}")
        return None
    if result.fingerprint != expected:
        return (f"seeded RunResult drifted for {name}: "
                f"{result.fingerprint} != {expected}")
    return None


def fingerprint_specs() -> list[PointSpec]:
    """The whole registry as one sweep figure ("fingerprints")."""
    specs = []
    for point in sorted(FINGERPRINTS):
        overrides, _expected = FINGERPRINTS[point]
        overrides = dict(overrides)
        seed = overrides.pop("seed", 11)
        system = point.split("-")[0]
        params = tuple(sorted(overrides.items())) + (("seed", seed),)
        specs.append(PointSpec(
            figure="fingerprints", key=(point,), system=system,
            scale=SMOKE, params=params, weight=0.5))
    for name in sorted(CHAOS_DIGESTS):
        specs.append(PointSpec(
            figure="fingerprints", key=(name,), runner="chaos",
            params=(("name", name), ("seed", 11)), weight=1.5))
    return specs


def fingerprints_assemble(results: dict) -> dict:
    """Fold the registry runs into a pass/fail artifact: each chaos
    point's digest, every other point's fingerprint."""
    return {"id": "fingerprints", "observed": {
        point: (res.payload or {}).get("digest", res.fingerprint)
        for (point,), res in results.items()}}


def run_chaos_spec(spec: PointSpec, start: float) -> PointResult:
    """Execute a chaos PointSpec (the ``runner == "chaos"`` arm)."""
    import time

    from ..chaos import run_chaos_point
    params = dict(spec.params)
    entry = CHAOS_SCENARIOS[params["name"]]
    res = run_chaos_point(entry["system"], entry["scenario"],
                          seed=params.get("seed", 11), **entry["kwargs"])
    run = res.run
    return PointResult(
        figure=spec.figure, key=spec.key,
        wall_s=round(time.perf_counter() - start, 4),
        tps=run.tps, measured=run.measured, elapsed=run.elapsed,
        timeouts=run.timeouts, committed=run.stats.committed,
        aborted=run.stats.aborted, abort_rate=run.abort_rate,
        mean_latency=run.stats.latency.mean,
        abort_reasons=dict(run.stats.abort_reasons),
        payload={"digest": res.digest(), "ok": res.ok,
                 "violations": list(res.violations)})
