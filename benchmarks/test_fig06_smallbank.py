"""Figure 6: Smallbank throughput under skew (Zipf theta = 1).

Paper: Fabric 835, Quorum 655, TiDB 1031 tps — the astonishing result
that the blockchain-database gap nearly closes under a constrained,
skewed OLTP workload.  Quorum improves ~2.5x over its 1 kB-record YCSB
number because Smallbank records are small.
"""

from repro.bench.sweep import run_figure

from conftest import BENCH_SCALE, print_dict, run_once


def test_fig6_smallbank(benchmark):
    result = run_once(benchmark, run_figure, "fig6", scale=BENCH_SCALE,
                      num_accounts=100_000)
    measured = result["measured"]
    print_dict("Fig 6 Smallbank tps (theta=1)", measured, result["paper"])

    # Shape claim 1: the gap between TiDB and the blockchains is small
    # (same order of magnitude; paper ratio TiDB/Quorum ~ 1.6).
    assert measured["tidb"] < 8 * measured["quorum"]
    assert measured["tidb"] < 8 * measured["fabric"]
    # Shape claim 2: Quorum's Smallbank throughput beats its own 1 kB YCSB
    # number (~245 tps) thanks to small records.
    assert measured["quorum"] > 400
    # Shape claim 3: everything sits in the hundreds-to-low-thousands
    # band the paper reports.
    for system, tps in measured.items():
        assert 100 < tps < 10_000, (system, tps)
