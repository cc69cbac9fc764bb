"""Point table and assembler per paper artifact: Figures 4-15, Tables 4-5.

Every figure is a declarative half and a fold: ``*_points`` enumerates
the figure's measurements as picklable
:class:`~repro.bench.harness.PointSpec` records, and ``*_assemble``
folds the finished :class:`~repro.bench.harness.PointResult` values into
the artifact dict — the measured series plus ``paper``, the values the
paper reports, so callers can compare shapes.  :data:`POINT_TABLES` is
the one registry of figure ids; :func:`repro.bench.sweep.run_figure`
(one figure) and :func:`repro.bench.sweep.run_sweep` (a grid of them)
are the one engine that runs it, in-process or across ``jobs`` workers.
Pass ``scale=SMOKE`` for quick runs, ``BENCH`` for the default fidelity.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from ..adt.mbt import MerkleBucketTree
from ..adt.mpt import MerklePatriciaTrie
from ..core.forecast import (REPORTED_THROUGHPUT, forecast, rank)
from ..core.taxonomy import TABLE2
from ..txn.ledger import envelope_size
from ..txn.transaction import Transaction
from .harness import BENCH, PointSpec, Scale

__all__ = ["POINT_TABLES", "fig12_storage", "fig13_ads_overhead",
           "openloop_point"]

FOUR_SYSTEMS = ("fabric", "quorum", "tidb", "etcd")
FIVE_SYSTEMS = FOUR_SYSTEMS + ("tikv",)

#: Relative wall cost of one closed-loop point per system (longest-job-
#: first scheduling hint; measured BENCH-scale magnitudes, not a gate).
_SYSTEM_WEIGHT = {
    "fabric": 5.0, "quorum": 2.5, "tidb": 3.5, "etcd": 1.0, "tikv": 1.3,
    "spanner": 1.6, "ahl": 2.5, "veritas": 1.0, "chainifydb": 1.5,
    "brd": 1.5, "bigchaindb": 2.0, "falcondb": 2.0, "blockchaindb": 3.0,
}


def _weight(system: str, scale: Scale, measure_txns: Optional[int] = None,
            ops_per_txn: int = 1, num_nodes: int = 5) -> float:
    txns = measure_txns if measure_txns is not None else scale.measure_txns
    return (_SYSTEM_WEIGHT.get(system, 1.5)
            * (txns / max(1, scale.measure_txns))
            * (0.5 + 0.5 * ops_per_txn)
            * (num_nodes / 5) ** 0.5)


# ---------------------------------------------------------------------------
# Figure 4: peak YCSB throughput (update and query), 5 systems, log scale
# ---------------------------------------------------------------------------

_FIG4_PAPER = {
    "update": {"fabric": 1294, "quorum": 245, "tidb": 5159,
               "etcd": 16781, "tikv": 13507},
    "query": {"fabric": 23809, "quorum": 19166, "tidb": 87933,
              "etcd": 282192, "tikv": 94050},
}


def fig4_points(scale: Scale = BENCH,
                systems: tuple = FIVE_SYSTEMS) -> list[PointSpec]:
    specs = []
    for mode in ("update", "query"):
        for system in systems:
            measure = scale.measure_txns * 3 if mode == "query" else None
            specs.append(PointSpec(
                figure="fig4", key=(mode, system), system=system,
                scale=scale,
                params=(("mode", mode), ("measure_txns", measure)),
                weight=_weight(system, scale, measure) * (
                    0.4 if mode == "query" else 1.0)))
    return specs


def fig4_assemble(results: dict) -> dict:
    measured = {"update": {}, "query": {}}
    for (mode, system), res in results.items():
        measured[mode][system] = res.tps
    return {"id": "fig4", "measured": measured, "paper": _FIG4_PAPER}


# ---------------------------------------------------------------------------
# Figure 5: unsaturated latency (update and query)
# ---------------------------------------------------------------------------

_FIG5_PAPER_MS = {
    "update": {"fabric": 3500, "quorum": 500, "tidb": 100,
               "etcd": 100, "tikv": 100},
    "query": {"fabric": 9, "quorum": 4, "tidb": 1,
              "etcd": 1, "tikv": 1},
}


def fig5_points(scale: Scale = BENCH,
                systems: tuple = FIVE_SYSTEMS) -> list[PointSpec]:
    specs = []
    for mode in ("update", "query"):
        for system in systems:
            measure = max(100, scale.measure_txns // 10)
            # unsaturated: a handful of closed-loop clients
            specs.append(PointSpec(
                figure="fig5", key=(mode, system), system=system,
                scale=scale,
                params=(("mode", mode), ("clients", 4),
                        ("measure_txns", measure)),
                weight=_weight(system, scale, measure)))
    return specs


def fig5_assemble(results: dict) -> dict:
    measured = {"update": {}, "query": {}}
    for (mode, system), res in results.items():
        measured[mode][system] = res.mean_latency * 1000.0
    return {"id": "fig5", "measured_ms": measured, "paper_ms": _FIG5_PAPER_MS}


# ---------------------------------------------------------------------------
# Figure 6: Smallbank throughput (skewed, theta=1)
# ---------------------------------------------------------------------------

_FIG6_PAPER = {"fabric": 835, "quorum": 655, "tidb": 1031}


def fig6_points(scale: Scale = BENCH,
                num_accounts: Optional[int] = None) -> list[PointSpec]:
    accounts = num_accounts if num_accounts is not None \
        else max(scale.record_count * 5, 10_000)
    return [PointSpec(figure="fig6", key=(system,), runner="smallbank",
                      system=system, scale=scale,
                      params=(("num_accounts", accounts),),
                      weight=_weight(system, scale))
            for system in ("fabric", "quorum", "tidb")]


def fig6_assemble(results: dict) -> dict:
    measured = {system: res.tps for (system,), res in results.items()}
    return {"id": "fig6", "measured": measured, "paper": _FIG6_PAPER}


# ---------------------------------------------------------------------------
# Figure 7: Quorum Raft (CFT) vs IBFT (BFT) vs tolerated failures
# ---------------------------------------------------------------------------

def fig7_points(scale: Scale = BENCH,
                failures: tuple = (1, 2, 3, 4, 5, 6),
                seeds: tuple = (0, 1, 2)) -> list[PointSpec]:
    specs = []
    for f in failures:
        for protocol, nodes in (("raft", 2 * f + 1), ("ibft", 3 * f + 1)):
            for seed in seeds:
                measure = max(200, scale.measure_txns // 2)
                specs.append(PointSpec(
                    figure="fig7", key=(protocol, f, seed), system="quorum",
                    scale=scale,
                    params=(("num_nodes", nodes), ("seed", seed),
                            ("measure_txns", measure),
                            ("system_kwargs", {"consensus": protocol})),
                    weight=_weight("quorum", scale, measure,
                                   num_nodes=nodes)))
    return specs


def fig7_assemble(results: dict) -> dict:
    measured: dict = {"raft": {}, "ibft": {}}
    samples: dict = {}
    for (protocol, f, _seed), res in results.items():
        samples.setdefault((protocol, f), []).append(res.tps)
    for (protocol, f), vals in samples.items():
        mean = sum(vals) / len(vals)
        var = sum((s - mean) ** 2 for s in vals) / len(vals)
        measured[protocol][f] = {"mean": mean, "std": var ** 0.5,
                                 "samples": vals}
    return {"id": "fig7", "measured": measured,
            "paper": {"note": "both protocols flat at ~230-380 tps; "
                              "IBFT variance grows with f"}}


# ---------------------------------------------------------------------------
# Figure 8: latency breakdown (Fabric phases; TiDB query costs)
# ---------------------------------------------------------------------------

def fig8_points(scale: Scale = BENCH) -> list[PointSpec]:
    trickle = max(100, scale.measure_txns // 10)
    return [
        # Fabric update, unsaturated vs saturated
        PointSpec(figure="fig8", key=("unsat",), system="fabric", scale=scale,
                  params=(("clients", 8), ("measure_txns", trickle)),
                  weight=_weight("fabric", scale, trickle)),
        PointSpec(figure="fig8", key=("sat",), system="fabric", scale=scale,
                  weight=_weight("fabric", scale)),
        # Query breakdowns
        PointSpec(figure="fig8", key=("fabric_query",), system="fabric",
                  scale=scale,
                  params=(("mode", "query"), ("clients", 8),
                          ("measure_txns", trickle)),
                  weight=_weight("fabric", scale, trickle)),
        PointSpec(figure="fig8", key=("tidb_query",), system="tidb",
                  scale=scale,
                  params=(("mode", "query"), ("clients", 8),
                          ("measure_txns", trickle)),
                  weight=_weight("tidb", scale, trickle)),
    ]


def fig8_assemble(results: dict) -> dict:
    out = {"id": "fig8", "paper": {
        "fabric_unsaturated_ms": {"execute": 500, "order": 700,
                                  "validate": 700},
        "fabric_query_us": {"authentication": 4294, "simulation": 406,
                            "endorsement": 59},
        "tidb_query_us": {"sql-parse": 16, "sql-compile": 15,
                          "storage-get": 275},
    }}
    out["fabric_unsaturated_ms"] = {
        k: v * 1000 for k, v in results[("unsat",)].phase_means.items()}
    out["fabric_saturated_ms"] = {
        k: v * 1000 for k, v in results[("sat",)].phase_means.items()}
    out["fabric_query_us"] = {
        k: v * 1e6 for k, v in results[("fabric_query",)].phase_means.items()}
    out["tidb_query_us"] = {
        k: v * 1e6 for k, v in results[("tidb_query",)].phase_means.items()}
    return out


# ---------------------------------------------------------------------------
# Table 4: throughput vs number of nodes (full replication)
# ---------------------------------------------------------------------------

_TAB4_PAPER = {
    "fabric": {3: 1560, 7: 1288, 11: 1031, 15: 749, 19: 528},
    "quorum": {3: 237, 7: 236, 11: 229, 15: 217, 19: 219},
    "tidb": {3: 5697, 7: 7884, 11: 7544, 15: 6239, 19: 5526},
    "etcd": {3: 19282, 7: 16453, 11: 11243, 15: 7801, 19: 6076},
}


def tab4_points(scale: Scale = BENCH,
                node_counts: tuple = (3, 7, 11, 15, 19),
                systems: tuple = FOUR_SYSTEMS) -> list[PointSpec]:
    return [PointSpec(figure="tab4", key=(system, n), system=system,
                      scale=scale, params=(("num_nodes", n),),
                      weight=_weight(system, scale, num_nodes=n))
            for system in systems for n in node_counts]


def tab4_assemble(results: dict) -> dict:
    measured: dict = {}
    for (system, n), res in results.items():
        measured.setdefault(system, {})[n] = res.tps
    return {"id": "tab4", "measured": measured, "paper": _TAB4_PAPER}


# ---------------------------------------------------------------------------
# Table 5: TiDB servers x TiKV nodes matrix
# ---------------------------------------------------------------------------

_TAB5_PAPER = {
    3: {3: 5697, 7: 8517, 11: 9116, 15: 8838, 19: 8690},
    7: {3: 5951, 7: 7884, 11: 8539, 15: 8162, 19: 8246},
    11: {3: 5847, 7: 6871, 11: 7544, 15: 6941, 19: 7429},
    15: {3: 5121, 7: 5703, 11: 6306, 15: 6239, 19: 5618},
    19: {3: 4198, 7: 5238, 11: 5477, 15: 5563, 19: 5526},
}


def tab5_points(scale: Scale = BENCH,
                tidb_counts: tuple = (3, 7, 11, 15, 19),
                tikv_counts: tuple = (3, 7, 11, 15, 19)) -> list[PointSpec]:
    specs = []
    for tidb_n in tidb_counts:
        for tikv_n in tikv_counts:
            nodes = max(tidb_n, tikv_n)
            specs.append(PointSpec(
                figure="tab5", key=(tidb_n, tikv_n), system="tidb",
                scale=scale,
                params=(("num_nodes", nodes),
                        ("clients", 64 * max(1, tidb_n // 3)),
                        ("system_kwargs", {"tidb_servers": tidb_n,
                                           "tikv_nodes": tikv_n})),
                weight=_weight("tidb", scale, num_nodes=nodes)))
    return specs


def tab5_assemble(results: dict) -> dict:
    measured: dict = {}
    for (tidb_n, tikv_n), res in results.items():
        measured.setdefault(tidb_n, {})[tikv_n] = res.tps
    return {"id": "tab5", "measured": measured, "paper": _TAB5_PAPER}


# ---------------------------------------------------------------------------
# Figure 9: throughput + abort rate vs Zipf skew
# ---------------------------------------------------------------------------

_FIG9_PAPER = {
    "tidb_tps": {0.0: 5461, 1.0: 173},
    "fabric_abort_rate": {1.0: 0.44},
    "tidb_abort_rate": {1.0: 0.30},
    "note": "etcd and Quorum unaffected (serial execution)",
}


def fig9_points(scale: Scale = BENCH,
                thetas: tuple = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
                systems: tuple = FOUR_SYSTEMS) -> list[PointSpec]:
    return [PointSpec(figure="fig9", key=(system, theta), system=system,
                      scale=scale,
                      params=(("theta", theta), ("mode", "rmw")),
                      weight=_weight(system, scale, ops_per_txn=2))
            for system in systems for theta in thetas]


def fig9_assemble(results: dict) -> dict:
    measured: dict = {}
    for (system, theta), res in results.items():
        entry = measured.setdefault(system, {"tps": {}, "abort_rate": {}})
        entry["tps"][theta] = res.tps
        entry["abort_rate"][theta] = res.abort_rate
    return {"id": "fig9", "measured": measured, "paper": _FIG9_PAPER}


# ---------------------------------------------------------------------------
# Figure 10: throughput + abort rate vs operations per transaction
# ---------------------------------------------------------------------------

_FIG10_PAPER = {
    "tidb_relative_tps_at_10": 0.32,
    "fabric_abort_rate_at_10": 0.87,
    "tidb_abort_rate_at_10": 0.269,
    "fabric_abort_split_at_10": {"inconsistent_read": 0.14,
                                 "read_write_conflict": 0.86},
}


def fig10_points(scale: Scale = BENCH,
                 op_counts: tuple = (1, 2, 4, 6, 8, 10),
                 systems: tuple = FOUR_SYSTEMS) -> list[PointSpec]:
    return [PointSpec(figure="fig10", key=(system, ops), system=system,
                      scale=scale,
                      params=(("ops_per_txn", ops), ("mode", "rmw"),
                              ("fix_total_size", True)),
                      weight=_weight(system, scale, ops_per_txn=ops))
            for system in systems for ops in op_counts]


def fig10_assemble(results: dict) -> dict:
    measured: dict = {}
    for (system, ops), res in results.items():
        entry = measured.setdefault(
            system, {"tps": {}, "abort_rate": {}, "abort_reasons": {}})
        entry["tps"][ops] = res.tps
        entry["abort_rate"][ops] = res.abort_rate
        entry["abort_reasons"][ops] = dict(res.abort_reasons)
    return {"id": "fig10", "measured": measured, "paper": _FIG10_PAPER}


# ---------------------------------------------------------------------------
# Figure 11: throughput + phase latency vs record size
# ---------------------------------------------------------------------------

_FIG11_PAPER = {
    "quorum_tps": {10: 1547, 1000: 245, 5000: 58},
    "fabric_tps": {10: 1400, 1000: 1294, 5000: 700},
    "note": "Quorum collapses with record size (MPT reconstruction); "
            "Fabric roughly flat until 5000 B",
}


def fig11_points(scale: Scale = BENCH,
                 record_sizes: tuple = (10, 100, 1000, 5000),
                 systems: tuple = FOUR_SYSTEMS) -> list[PointSpec]:
    return [PointSpec(figure="fig11", key=(system, size), system=system,
                      scale=scale, params=(("record_size", size),),
                      weight=_weight(system, scale)
                      * (1.0 + size / 5000.0))
            for system in systems for size in record_sizes]


def fig11_assemble(results: dict) -> dict:
    measured: dict = {}
    for (system, size), res in results.items():
        entry = measured.setdefault(system, {"tps": {}, "phases_ms": {}})
        entry["tps"][size] = res.tps
        entry["phases_ms"][size] = {
            k: v * 1000 for k, v in res.phase_means.items()}
    return {"id": "fig11", "measured": measured, "paper": _FIG11_PAPER}


# ---------------------------------------------------------------------------
# Figure 12: storage bytes per record (Fabric state+block vs TiDB)
# ---------------------------------------------------------------------------

def fig12_storage(record_sizes: tuple = (10, 100, 1000, 5000),
                  records: int = 1000,
                  endorsements: int = 3) -> dict:
    paper = {
        "fabric_block": {10: 6741, 100: 7020, 1000: 9723, 5000: 21725},
        "tidb": {10: 59.8, 100: 150, 1000: 1050, 5000: 5050},
    }
    measured = {"fabric_state": {}, "fabric_block": {}, "tidb": {}}
    for size in record_sizes:
        value = random.Random(size).randbytes(size)
        # Fabric block storage: one envelope per record insert.
        txn = Transaction.write("user000000000001", value)
        per_txn = envelope_size(txn, endorsements)
        measured["fabric_block"][size] = per_txn + 96 / records
        # Fabric state storage: the LevelDB key/value itself.
        measured["fabric_state"][size] = size + 24  # key + version metadata
        # TiDB: LSM entry (key + value + headers), no history kept.
        measured["tidb"][size] = size + 50
    return {"id": "fig12", "measured": measured, "paper": paper,
            "records": records}


def fig12_points(scale: Scale = BENCH) -> list[PointSpec]:
    # Pure data-structure measurement: one inline spec, no Scale.
    return [PointSpec(figure="fig12", key=(), runner="inline",
                      fn="fig12_storage", weight=0.05)]


def fig12_assemble(results: dict) -> dict:
    return results[()].payload


# ---------------------------------------------------------------------------
# Figure 13: tamper-evidence overhead — MBT vs MPT bytes per record
# ---------------------------------------------------------------------------

def fig13_ads_overhead(record_sizes: tuple = (10, 100, 1000, 5000),
                       records: int = 10_000) -> dict:
    paper = {
        "mbt": {10: 24, 100: 24, 1000: 47, 5000: 83},
        "mpt": {10: 1080, 100: 1084, 1000: 1071, 5000: 1083},
        "note": "paper reports total/record of 34/124/1024/5024 (MBT) and "
                "1090/1184/2071/6083 (MPT); overhead = total - record",
    }
    measured = {"mbt": {}, "mpt": {}, "mbt_depth": None, "mpt_nodes": {}}
    for size in record_sizes:
        mbt = MerkleBucketTree(num_buckets=1000, fanout=4)
        mpt = MerklePatriciaTrie()
        rng = random.Random(size)   # seeded bodies: the tries reproduce
        for i in range(records):
            key = hashlib.md5(f"rec{i}".encode()).digest()  # 16-byte keys
            value = rng.randbytes(size)
            mbt.put(key, value)
            mpt.put(key, value)
        mbt.commit()
        measured["mbt"][size] = mbt.overhead_per_record(size)
        total = mpt.store.total_bytes()
        measured["mpt"][size] = (total - records * size) / records
        measured["mpt_nodes"][size] = len(mpt.store)
    measured["mbt_depth"] = MerkleBucketTree(1000, 4).depth
    return {"id": "fig13", "measured": measured, "paper": paper,
            "records": records}


def fig13_points(scale: Scale = BENCH) -> list[PointSpec]:
    return [PointSpec(figure="fig13", key=(), runner="inline",
                      fn="fig13_ads_overhead", weight=1.0)]


def fig13_assemble(results: dict) -> dict:
    return results[()].payload


# ---------------------------------------------------------------------------
# Figure 14: sharded throughput (TiDB vs Spanner vs AHL)
# ---------------------------------------------------------------------------

_FIG14_PAPER = {"note": "TiDB > Spanner >> AHL(fixed) > AHL(reconfig, -30%); "
                        "log-scale gap of 1-2 orders of magnitude"}


def fig14_points(scale: Scale = BENCH,
                 node_counts: tuple = (3, 12, 24, 36, 48),
                 theta: float = 1.0) -> list[PointSpec]:
    from ..sim.costs import DEFAULT_COSTS
    # Shrink the reconfiguration epoch so several pauses land inside the
    # measurement window (same 30% duty-cycle loss as the paper's setup).
    reconfig_costs = DEFAULT_COSTS.derive(ahl_reconfig_period=3.0,
                                          ahl_reconfig_pause=0.9)
    specs = []
    for n in node_counts:
        shards = n // 3
        specs.append(PointSpec(
            figure="fig14", key=("tidb", n), system="tidb", scale=scale,
            params=(("num_nodes", max(3, shards)), ("theta", theta),
                    ("ops_per_txn", 2), ("mode", "rmw"),
                    ("system_kwargs", {"tidb_servers": max(3, shards),
                                       "tikv_nodes": max(3, shards),
                                       "instant_abort": True})),
            weight=_weight("tidb", scale, ops_per_txn=2,
                           num_nodes=max(3, shards))))
        specs.append(PointSpec(
            figure="fig14", key=("spanner", n), system="spanner", scale=scale,
            params=(("num_nodes", n), ("theta", theta),
                    ("ops_per_txn", 2), ("mode", "rmw")),
            weight=_weight("spanner", scale, ops_per_txn=2, num_nodes=n)))
        for label, reconfig in (("ahl_fixed", False), ("ahl_reconfig", True)):
            measure = max(800, scale.measure_txns // 2)
            params = [("num_nodes", n), ("theta", theta),
                      ("ops_per_txn", 2), ("mode", "rmw"),
                      ("measure_txns", measure),
                      ("system_kwargs", {"periodic_reconfig": reconfig})]
            if reconfig:
                params.append(("costs", reconfig_costs))
            specs.append(PointSpec(
                figure="fig14", key=(label, n), system="ahl", scale=scale,
                params=tuple(params),
                weight=_weight("ahl", scale, measure, ops_per_txn=2,
                               num_nodes=n)))
    return specs


def fig14_assemble(results: dict) -> dict:
    measured: dict = {"tidb": {}, "spanner": {}, "ahl_fixed": {},
                      "ahl_reconfig": {}}
    for (label, n), res in results.items():
        measured[label][n] = res.tps
    return {"id": "fig14", "measured": measured, "paper": _FIG14_PAPER}


# ---------------------------------------------------------------------------
# Figure 14 (scaling stretch): AHL to hundreds of shards, serial-vs-parallel
# ---------------------------------------------------------------------------

#: Shard counts for the hundreds-of-shards sweep (Fig. 14 stretch setup).
_FIG14_SCALING_SHARDS = (4, 16, 64, 256)


def fig14_scaling_points(scale: Scale = BENCH,
                         shard_counts: tuple = _FIG14_SCALING_SHARDS,
                         seed: int = 11) -> list[PointSpec]:
    """AHL at 4..256 shards, each count under both execution kernels.

    Per shard count, one point on the single-heap lookahead build
    (``shard_lookahead=True``, the equivalence reference) and one on the
    conservative-parallel build (``parallel=True``); the assembler
    enforces byte-identical fingerprints per pair.  Parallel points are
    ``no_fork`` — the shard-worker pool cannot be started inside a
    daemonic ``--jobs`` pool worker — so the sweep runs them in its
    parent process.
    """
    specs = []
    for shards in shard_counts:
        base = (("num_nodes", 3 * shards), ("seed", seed),
                ("mode", "rmw"), ("ops_per_txn", 2), ("theta", 0.0))
        weight = _weight("ahl", scale, ops_per_txn=2, num_nodes=3 * shards)
        specs.append(PointSpec(
            figure="fig14_scaling", key=("serial", shards), system="ahl",
            scale=scale,
            params=base + (("system_kwargs", {"shard_lookahead": True}),),
            weight=weight))
        specs.append(PointSpec(
            figure="fig14_scaling", key=("parallel", shards), system="ahl",
            scale=scale,
            params=base + (("system_kwargs", {"parallel": True}),),
            weight=weight, no_fork=True))
    return specs


def fig14_scaling_assemble(results: dict) -> dict:
    """Fold the scaling matrix; equivalence is an assertion, not a field.

    A shard count whose parallel fingerprint differs from its serial one
    raises — a sweep must never report a scaling curve whose two kernels
    disagreed on the simulated universe.
    """
    shards = sorted({n for (_b, n) in results})
    tps = {"serial": {}, "parallel": {}}
    wall = {"serial": {}, "parallel": {}}
    for (build, n), res in results.items():
        tps[build][n] = res.tps
        wall[build][n] = res.wall_s
    identical = {}
    for n in shards:
        s, p = results[("serial", n)], results[("parallel", n)]
        if s.fingerprint != p.fingerprint:
            raise AssertionError(
                f"fig14_scaling: parallel kernel diverged from serial "
                f"lookahead at {n} shards: {p.fingerprint} != "
                f"{s.fingerprint}")
        identical[n] = True
    return {
        "id": "fig14_scaling",
        "shards": shards,
        "measured": tps,
        "wall_s": wall,
        "speedup": {n: wall["serial"][n] / wall["parallel"][n]
                    if wall["parallel"][n] else 0.0 for n in shards},
        "byte_identical": identical,
        "paper": {"note": "AHL throughput scales near-linearly in shard "
                          "count at uniform access (Fig. 14 regime); "
                          "speedup is wall-clock serial/parallel on this "
                          "box and is not pinned"},
    }


# ---------------------------------------------------------------------------
# Figure 15: hybrid forecast vs reported and vs simulated
# ---------------------------------------------------------------------------

def fig15_points(scale: Scale = BENCH, simulate: bool = True,
                 num_nodes: int = 4) -> list[PointSpec]:
    if not simulate:
        return []
    specs = []
    for name in REPORTED_THROUGHPUT:
        # PoW commits arrive in bursts of whole blocks: measure over
        # many blocks or the tps estimate is meaningless.
        measure = (max(800, scale.measure_txns)
                   if name == "blockchaindb" else scale.measure_txns)
        specs.append(PointSpec(
            figure="fig15", key=(name,), system=name, scale=scale,
            params=(("num_nodes", num_nodes), ("measure_txns", measure)),
            weight=_weight(name, scale, measure, num_nodes=num_nodes)))
    return specs


def fig15_assemble(results: dict) -> dict:
    names = list(REPORTED_THROUGHPUT)
    forecasts = {n: forecast(TABLE2[n]) for n in names}
    out = {
        "id": "fig15",
        "forecast": {n: {"band": f.band.value, "score": f.score,
                         "range": f.tps_range}
                     for n, f in forecasts.items()},
        "reported": dict(REPORTED_THROUGHPUT),
        "ranking": [f.system for f in rank([TABLE2[n] for n in names])],
    }
    if results:     # empty when the points were enumerated simulate=False
        out["simulated"] = {name: res.tps
                            for (name,), res in results.items()}
    return out


# ---------------------------------------------------------------------------
# Isolation ablation: throughput gained vs anomalies admitted
# ---------------------------------------------------------------------------

#: The isolation spectrum ``extras["isolation"]`` accepts, strongest first.
_ISOLATION_LEVELS = ("serializable", "snapshot", "read_committed")


def isolation_points(scale: Scale = BENCH) -> list[PointSpec]:
    """The isolation-spectrum grid: workload x system x level.

    YCSB read-modify-write under skew runs on all four wired systems
    (the certifier proves rmw robust against SI, so only read-committed
    rows should admit anomalies — lost updates).  Smallbank update-only
    runs on quorum (certified robust against SI); the balance-mixed
    variant runs on etcd, where the certifier's SI counterexample — the
    read-only write-skew anomaly — is realizable and observable.  Every
    YCSB row at SMOKE scale doubles as a seeded-fingerprint pin.
    """
    specs = []
    for system in ("etcd", "tikv", "tidb", "quorum"):
        base = [("mode", "rmw"), ("theta", 0.9), ("seed", 11)]
        if system == "tidb":
            base.append(("ops_per_txn", 2))
        for level in _ISOLATION_LEVELS:
            specs.append(PointSpec(
                figure="isolation_ablation",
                key=("ycsb-rmw", system, level),
                runner="ycsb", system=system, scale=scale,
                params=tuple(base) + (("extras", {"isolation": level}),),
                weight=_weight(system, scale)))
    for level in _ISOLATION_LEVELS:
        specs.append(PointSpec(
            figure="isolation_ablation",
            key=("smallbank", "quorum", level),
            runner="smallbank", system="quorum", scale=scale,
            params=(("num_accounts", 200), ("theta", 0.9), ("seed", 11),
                    ("extras", {"isolation": level})),
            weight=_weight("quorum", scale)))
        specs.append(PointSpec(
            figure="isolation_ablation",
            key=("smallbank-mix", "etcd", level),
            runner="smallbank", system="etcd", scale=scale,
            params=(("num_accounts", 50), ("theta", 1.0),
                    ("query_proportion", 0.4), ("seed", 11),
                    ("extras", {"isolation": level})),
            weight=_weight("etcd", scale)))
    return specs


def isolation_assemble(results: dict) -> dict:
    rows: dict = {}
    for (workload, system, level), res in results.items():
        row = rows.setdefault(f"{workload}/{system}", {})
        payload = res.payload or {}
        anomalies = payload.get("anomalies") or {}
        row[level] = {
            "tps": res.tps,
            "aborted": res.aborted,
            "serializable": payload.get("serializable_history"),
            "predicted": payload.get("predicted_anomaly"),
            "anomalies": {k: v for k, v in anomalies.items() if v},
        }
    for row in rows.values():
        base = row["serializable"]["tps"] if "serializable" in row else 0.0
        for cell in row.values():
            cell["speedup_vs_serializable"] = (
                round(cell["tps"] / base, 3) if base else None)
    return {"id": "isolation_ablation", "rows": rows}


# ---------------------------------------------------------------------------
# Open-loop knee: goodput vs offered load, CO-safe tail alongside
# ---------------------------------------------------------------------------

#: Offered-load baseline for the knee sweep — the etcd closed-loop peak
#: (Fig. 4's highest wired-system point), so multiplier 1.0 sits at the
#: nominal capacity and the knee falls inside the swept range.
_OPENLOOP_BASE_RATE = 15_000.0

#: Offered-load multipliers per scale (smoke trims the sub-knee ramp).
_OPENLOOP_MULTIPLIERS = {
    "smoke": (0.5, 1.0, 1.5, 2.0),
    "bench": (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
    "paper": (0.25, 0.5, 0.75, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0),
}


def openloop_point(multiplier: float = 1.0,
                   base_rate: float = _OPENLOOP_BASE_RATE,
                   duration: float = 0.6, warmup: float = 0.2,
                   record_count: int = 2000, arrival: str = "poisson",
                   system: str = "etcd", seed: int = 11) -> dict:
    """One open-loop measurement at ``multiplier`` x the base rate.

    The in-flight cap and admit queue are deliberately finite so
    overload shows up as queueing delay, late admissions, and drops —
    CO-safe p99 diverges while goodput saturates — instead of the run
    silently absorbing an unbounded backlog.
    """
    from ..core.builder import build_system
    from ..sim.kernel import Environment
    from ..systems.base import SystemConfig
    from ..workloads.openloop import OpenLoopConfig, run_open_loop
    from ..workloads.ycsb import YcsbConfig, YcsbWorkload

    env = Environment()
    sys_obj = build_system(env, system, SystemConfig(num_nodes=5, seed=seed))
    workload = YcsbWorkload(YcsbConfig(record_count=record_count,
                                       record_size=1000, seed=seed + 1))
    sys_obj.load(workload.initial_records())
    cfg = OpenLoopConfig(
        rate=base_rate * multiplier, duration=duration, warmup=warmup,
        arrival=arrival, seed=seed, txn_timeout=1.0,
        max_in_flight=256, admit_queue=2048,
        max_sim_time=warmup + duration + 10.0)
    res = run_open_loop(env, sys_obj, workload.next_update, cfg)
    out = {
        "multiplier": multiplier,
        "offered_rate": cfg.rate,
        "offered": res.offered,
        "goodput": res.goodput,
        "p50": res.p50, "p99": res.p99, "p999": res.p999,
        "mean_latency": res.latency.mean,
        "slo": res.slo, "slo_attainment": res.slo_attainment,
        "committed": res.committed, "aborted": res.aborted,
        "timeouts": res.timeouts, "dropped": res.dropped,
        "late_admitted": res.late_admitted,
        "digest": res.result_digest(),
    }
    if res.extras.get("wall_hit"):
        out["wall_hit"] = True
    return out


def openloop_points(scale: Scale = BENCH,
                    multipliers: Optional[tuple] = None) -> list[PointSpec]:
    mults = multipliers if multipliers is not None \
        else _OPENLOOP_MULTIPLIERS.get(scale.name,
                                       _OPENLOOP_MULTIPLIERS["bench"])
    small = scale.name == "smoke"
    duration = 0.6 if small else 2.0
    warmup = 0.2 if small else 0.5
    return [
        PointSpec(
            figure="openloop_knee", key=(m,), runner="inline",
            fn="openloop_point",
            params=(("multiplier", m), ("duration", duration),
                    ("warmup", warmup),
                    ("record_count", scale.record_count), ("seed", 11)),
            # Wall cost is ~linear in the arrival count, i.e. in the
            # offered-load multiplier.
            weight=1.0 + 1.5 * m * (1.0 if small else 3.0))
        for m in mults
    ]


def openloop_assemble(results: dict) -> dict:
    curve = [res.payload for (_m,), res in
             sorted(results.items(), key=lambda kv: kv[0][0])]
    out = {"id": "openloop_knee", "base_rate": _OPENLOOP_BASE_RATE,
           "curve": curve}
    if len(curve) >= 2:
        # The open-loop signature a closed-loop driver cannot produce:
        # past the knee, offered load keeps rising, goodput stops
        # following it, and CO-safe p99 (measured from *intended*
        # arrival) diverges.
        first, last = curve[0], curve[-1]
        peak_goodput = max(row["goodput"] for row in curve)
        out["knee"] = {
            "peak_goodput": peak_goodput,
            "final_goodput_fraction": last["goodput"] / peak_goodput
            if peak_goodput else 0.0,
            "p99_divergence": last["p99"] / first["p99"]
            if first["p99"] else 0.0,
            "saturated": last["offered_rate"] > 1.2 * peak_goodput,
        }
    return out


#: figure id -> (points enumerator, assembler): the only registry of
#: figure ids (the pin registry rides along as "fingerprints" in sweep.py).
POINT_TABLES = {
    "fig4": (fig4_points, fig4_assemble),
    "fig5": (fig5_points, fig5_assemble),
    "fig6": (fig6_points, fig6_assemble),
    "fig7": (fig7_points, fig7_assemble),
    "fig8": (fig8_points, fig8_assemble),
    "tab4": (tab4_points, tab4_assemble),
    "tab5": (tab5_points, tab5_assemble),
    "fig9": (fig9_points, fig9_assemble),
    "fig10": (fig10_points, fig10_assemble),
    "fig11": (fig11_points, fig11_assemble),
    "fig12": (fig12_points, fig12_assemble),
    "fig13": (fig13_points, fig13_assemble),
    "fig14": (fig14_points, fig14_assemble),
    "fig14_scaling": (fig14_scaling_points, fig14_scaling_assemble),
    "fig15": (fig15_points, fig15_assemble),
    "isolation_ablation": (isolation_points, isolation_assemble),
    "openloop_knee": (openloop_points, openloop_assemble),
}
