"""Table 4: throughput vs number of nodes under full replication.

Paper (tps):            3      7     11     15     19
    Fabric           1560   1288   1031    749    528
    Quorum            237    236    229    217    219
    TiDB             5697   7884   7544   6239   5526
    etcd            19282  16453  11243   7801   6076
"""

from repro.bench.sweep import run_figure

from conftest import BENCH_SCALE, run_once


def test_tab4_scaling(benchmark):
    node_counts = (3, 7, 11, 19)
    result = run_once(benchmark, run_figure, "tab4", scale=BENCH_SCALE,
                      node_counts=node_counts)
    measured = result["measured"]
    paper = result["paper"]
    print("\n=== Table 4: tps vs nodes ===")
    header = "  system   " + "".join(f"{n:>9}" for n in node_counts)
    print(header)
    for system in measured:
        row = f"  {system:8s} " + "".join(
            f"{measured[system][n]:>9.0f}" for n in node_counts)
        row += "   (paper: " + "/".join(
            str(paper[system][n]) for n in node_counts) + ")"
        print(row)

    # Shape claim 1: Fabric declines steadily (~3x from 3 to 19 nodes),
    # because validation verifies one endorsement per peer.
    fab = measured["fabric"]
    assert fab[3] > fab[7] > fab[11] > fab[19]
    assert 2.0 < fab[3] / fab[19] < 6.0
    # Shape claim 2: Quorum is flat (serial execution dominates).
    quorum_vals = list(measured["quorum"].values())
    assert max(quorum_vals) < 1.5 * min(quorum_vals)
    # Shape claim 3: etcd declines ~3x (leader egress grows with N).
    etcd = measured["etcd"]
    assert etcd[3] > etcd[7] > etcd[11] > etcd[19]
    assert 2.0 < etcd[3] / etcd[19] < 6.0
    # Shape claim 4: TiDB peaks at an intermediate size (not at 3, per
    # the storage/SQL interplay) and never collapses.
    tidb = measured["tidb"]
    assert max(tidb.values()) >= tidb[3]
    assert min(tidb.values()) > 0.4 * max(tidb.values())
