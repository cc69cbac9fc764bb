"""Table 5: TiDB throughput varying TiDB servers x TiKV nodes independently.

Paper: with 3 TiDB servers, adding TiKV nodes first helps (5697 -> 9116
at 11 nodes) then slightly hurts (8690 at 19: consensus overhead
outweighs hot-spot alleviation); with TiKV fixed, adding TiDB servers
beyond the storage capacity lowers throughput (5697 -> 4198 down the
first column).
"""

from repro.bench.sweep import run_figure

from conftest import BENCH_SCALE, run_once


def test_tab5_tidb_matrix(benchmark):
    tidb_counts = (3, 11, 19)
    tikv_counts = (3, 11, 19)
    result = run_once(benchmark, run_figure, "tab5",
                      scale=BENCH_SCALE.derive(measure_txns=1500),
                      tidb_counts=tidb_counts, tikv_counts=tikv_counts)
    measured = result["measured"]
    print("\n=== Table 5: TiDB servers x TiKV nodes (tps) ===")
    print("  tidb\\tikv " + "".join(f"{n:>9}" for n in tikv_counts))
    for tidb_n in tidb_counts:
        print(f"  {tidb_n:9d} " + "".join(
            f"{measured[tidb_n][n]:>9.0f}" for n in tikv_counts))
    print("  paper row tidb=3: 5697 / 9116 / 8690")

    # Shape claim 1: along the TiKV axis at 3 TiDB servers, more storage
    # nodes help at first (percolator work spreads over more leaders).
    row3 = measured[3]
    assert row3[11] > row3[3]
    # Shape claim 2: the surface is bounded — no configuration collapses
    # or explodes (paper range is 4198..9116, ~2.2x).
    values = [v for row in measured.values() for v in row.values()]
    assert max(values) < 4 * min(values)
    # Shape claim 3: the diagonal matches Table 4's TiDB row shape
    # (peak not at the smallest cluster).
    diag = {n: measured[n][n] for n in tidb_counts}
    assert max(diag.values()) >= diag[3]
