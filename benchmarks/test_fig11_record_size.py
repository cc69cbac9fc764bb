"""Figure 11: performance under the uniform update workload as the record
size grows (10 B to 5000 B), plus the Quorum/Fabric phase breakdown.

Paper: Quorum collapses from 1547 tps (10 B) to 58 tps (5000 B) — EVM
execution and MPT reconstruction are paid twice per transaction; Fabric
stays roughly flat to 1000 B and halves at 5000 B; databases degrade only
moderately.  Quorum's proposal-phase delay grows at the same rate as its
commit-phase delay (double execution).
"""

from repro.bench.sweep import run_figure

from conftest import BENCH_SCALE, run_once


def test_fig11_record_size(benchmark):
    sizes = (10, 1000, 5000)
    result = run_once(benchmark, run_figure, "fig11", scale=BENCH_SCALE,
                      record_sizes=sizes)
    measured = result["measured"]
    print("\n=== Fig 11a: tps vs record size ===")
    for system in measured:
        line = f"  {system:8s}"
        for size in sizes:
            line += f"   {size}B: {measured[system]['tps'][size]:8.0f}"
        print(line)
    print("  paper quorum: 1547 / 245 / 58;  paper fabric: ~1400 / 1294 / ~700")

    quorum = measured["quorum"]["tps"]
    fabric = measured["fabric"]["tps"]
    etcd = measured["etcd"]["tps"]
    # Shape claim 1: Quorum collapses by >10x from 10 B to 5000 B
    # (paper: 26x).
    assert quorum[10] / quorum[5000] > 10
    # Shape claim 2: Fabric is much less sensitive: < 4x over the sweep.
    assert fabric[10] / fabric[5000] < 4
    # Shape claim 3: crossover — Fabric loses to Quorum at tiny records
    # or is comparable, but wins clearly at 1000+ B (paper: 1294 vs 245).
    assert fabric[1000] > 2 * quorum[1000]
    assert fabric[5000] > 5 * quorum[5000]
    # Shape claim 4: databases degrade moderately (< 6x).
    assert etcd[10] / etcd[5000] < 6
    # Shape claim 5 (Fig 11b): Quorum proposal delay grows with record
    # size at a rate comparable to its commit delay (double execution).
    phases_small = measured["quorum"]["phases_ms"][10]
    phases_large = measured["quorum"]["phases_ms"][5000]
    proposal_growth = phases_large["proposal"] / max(phases_small["proposal"], 1e-9)
    commit_growth = phases_large["commit"] / max(phases_small["commit"], 1e-9)
    assert proposal_growth > 3
    assert commit_growth > 3
