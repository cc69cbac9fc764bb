"""Seeded SmallBank runs pinned as literals, one row per execution path.

SmallBank is the only workload whose transactions carry stored-procedure
logic, so it is the only one that shows whether a system really runs
that logic when it executes a transaction: serially after ordering
(quorum, etcd, the hybrids), simulate-then-validate (fabric, veritas,
chainifydb), percolator (tidb), strict 2PL (spanner), or staged under a
weakened isolation level (quorum, tikv, etcd and tidb at snapshot and
read committed).  The YCSB pins elsewhere carry no logic and cannot see
a path that skips it.

Each row holds one sha256 per seed over the run's final state, its
throughput, measured count, mean latency, abort reasons and, on the
isolation rows, the anomaly counts of the observed history.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.harness import SMOKE, run_smallbank_point

_SEEDS = (7, 11)

#: (system, isolation level or None for the default) -> one digest per
#: seed in ``_SEEDS``.  Spanner runs on 6 nodes (two 3-replica shards),
#: every other system on ``run_smallbank_point``'s default 5.
ROWS = {
    ("quorum", None): (
        "7bd4023286bbed6ad953b8eb16b3001e31a167fabf9312c81df36b953463f783",
        "7e1d44a38114fab1e6d0514c17084daf02d1402a19d06d209d9e4f2d0e4053c2",
    ),
    ("fabric", None): (
        "2ae83f4c7d4a1311d7102a5462b239eeef05b354d8941c27984b4c1632272b9c",
        "5668ea62fcc46c826b2c75e0cb900b56c5b7813c77d1b994fac489c07420b0c8",
    ),
    ("tidb", None): (
        "8d4b1739f38ddd20aad99a5b951f5ed8d93ce452613bf47be3f86315ea0b6309",
        "7a907551776e6c0da8f5817c8d31ef4f6ba4704e01b6eb0a47420b08e229479a",
    ),
    ("spanner", None): (
        "4d40f89ee3e357010694c8d97e19e7751bbb1809b95fcc6acfd14d43b25a0056",
        "2ad10e10a1430e62110ae65a63ad701289de7ff00d2972f8b8f41ea8af92be66",
    ),
    ("etcd", None): (
        "35882193770a3a4502d64da06eeb8c259b69619d811f467c4299f8b5a82fb14e",
        "1f05ec8e938ccb3b344a14f69da72427657eb820e1c256c0513d56b65a9ef62e",
    ),
    ("chainifydb", None): (
        "725c4760cfc90c6b5e6839a0f226099df65f8148f6ff234cf9849ee16eb599bb",
        "2ea9bfa190d124d26a5d5816d790fad778a720ce05ba23e854665651e053c25f",
    ),
    ("veritas", None): (
        "3abf8333e6f4f354a259a21c58f3e3f5eaf40b10e386cac00c2cf9db45f3da44",
        "d6272c3035575420688bac5d5e3ebab13bbf206a30373aeb673c809717563cf4",
    ),
    ("falcondb", None): (
        "8f1f55700c996ff071b0c1f647bb38ad34b4aaa5d2dacfd5d2283fab3a2d3cc5",
        "0c900d3b9d4cac2567cc6cbe36860347bb267b1cf225a9b691a454c8c7777822",
    ),
    ("brd", None): (
        "de60d63934c396f12aa7970e6c6b134882cba5a55acd42ff3c69ad747f599a64",
        "c93069951c4bfd39e1d0dc571f64a0011cc47aeba826e0b82bfebc06d9b644a5",
    ),
    ("bigchaindb", None): (
        "574199b0eb31b6501508654f9d34bd561ba71ea098e8ef8159e3a9c1c0f9e0e2",
        "36cb1d3665a9a2e28ae3300ec3ea9dfb8ea39f1ed6a514c49a5efd5eff84206f",
    ),
    ("quorum", "snapshot"): (
        "63209d3709e49e09cfcedcb126be34a480009c4a41c0c9cc1f306ba9cf7b1126",
        "758df8469e609b43344d386e1246b4ba21aaccf4abc90514d4b706447d37f618",
    ),
    ("tikv", "snapshot"): (
        "48d630a19bf4ae60e2402dbe7e201350c9aab19ea8d2296dd7642dd7d1d0be79",
        "071f297dc60cd6b81ddeec747cac133c3b75ea35824a4eec7e55897f51ae90c9",
    ),
    ("etcd", "snapshot"): (
        "2002d4b447bcda4bad12e8b889432f8fce125570a841d0a88a9565a4105c392c",
        "4b506fff0128b7d55ca2598d4ee05559776a283351e3b33d193d56738225b41f",
    ),
    ("tidb", "snapshot"): (
        "8ebfe4d7e1632886ba35f6d7b0c5f867fdee5ca3e137fb26e1cf4c53c99eaaa0",
        "bb03e43a11675b32472edfb532240f5d01d58be701f65a2641709f0078475064",
    ),
    ("quorum", "read_committed"): (
        "b20bbcb1421468a9df762e9a3228af1872b85818b8d98b177406a9613c128d1a",
        "c161de63ef2aeb3d3bd4344c0af87c58dc730cbc9d4b4058d9ce0ca97a7f0944",
    ),
    ("tikv", "read_committed"): (
        "5a42c64b59372f832f46bd58da2073ad992fac4020857427a1a327327db3bee8",
        "bd15983f8ad19c53dabda92ec3bbad773d726785bf4edcff4cfa4a6b36619084",
    ),
    ("etcd", "read_committed"): (
        "37eb1ccb0da9390d2f3dfec3974c47faf19530f096791e2e732e10f64e39cd35",
        "f2ff2774e68cb1c7a03f4a5589670894d4552fef51d2a5027e67a257f37a48fd",
    ),
    ("tidb", "read_committed"): (
        "cc9b8d37aa688f18bcab074fa06503a0c13b23c680ccbdbf7b1c48f685277fc6",
        "57a4b91dbdaf80f851e540413704c1f257168a6ad19c439f1a784980bae8d27d",
    ),
}


def _digest(system: str, level, seed: int) -> str:
    result = run_smallbank_point(
        system, scale=SMOKE, num_nodes=6 if system == "spanner" else 5,
        num_accounts=200, theta=0.9, query_proportion=0.2, seed=seed,
        extras={"isolation": level} if level else None)
    h = hashlib.sha256()
    state = result.extras["system"].state.snapshot()
    h.update(repr(sorted(state.items())).encode())
    h.update(repr(result.tps).encode())
    h.update(repr(result.measured).encode())
    h.update(repr(result.stats.latency.mean).encode())
    h.update(repr(sorted(result.stats.abort_reasons.items())).encode())
    h.update(repr(sorted(result.extras.get("anomalies", {}).items()))
             .encode())
    return h.hexdigest()


@pytest.mark.parametrize("row", sorted(ROWS, key=repr), ids=repr)
def test_smallbank_run_pinned(row):
    observed = tuple(_digest(*row, seed) for seed in _SEEDS)
    assert observed == ROWS[row], f"seeded SmallBank run drifted for {row}"
