"""Figure 7: Quorum throughput with Raft (CFT) vs IBFT (BFT) as the number
of tolerated failures f grows (N = 2f+1 for Raft, 3f+1 for IBFT).

Paper: both protocols sit at a similar, roughly constant throughput
(~230-380 tps at 1 kB records) because consensus is not the bottleneck —
serial execution is; IBFT shows larger variance at high f.
"""

import statistics

from repro.bench.sweep import run_figure

from conftest import BENCH_SCALE, run_once


def test_fig7_cft_vs_bft(benchmark):
    scale = BENCH_SCALE.derive(measure_txns=600)
    result = run_once(benchmark, run_figure, "fig7", scale=scale,
                      failures=(1, 2, 3), seeds=(0, 1))
    raft = result["measured"]["raft"]
    ibft = result["measured"]["ibft"]
    print("\n=== Fig 7: Quorum Raft vs IBFT ===")
    for f in raft:
        print(f"  f={f}: raft {raft[f]['mean']:7.0f} ±{raft[f]['std']:5.0f}"
              f"   ibft {ibft[f]['mean']:7.0f} ±{ibft[f]['std']:5.0f}")

    raft_means = [raft[f]["mean"] for f in raft]
    ibft_means = [ibft[f]["mean"] for f in ibft]
    # Shape claim 1: throughput roughly constant as f grows (within 2x),
    # for both protocols — the consensus is not the bottleneck.
    assert max(raft_means) < 2.0 * min(raft_means)
    assert max(ibft_means) < 2.0 * min(ibft_means)
    # Shape claim 2: CFT and BFT peak throughputs are similar (within 2x).
    overall_raft = statistics.mean(raft_means)
    overall_ibft = statistics.mean(ibft_means)
    assert 0.5 < overall_raft / overall_ibft < 2.0
    # Shape claim 3: both land in the paper's few-hundred-tps regime.
    assert 80 < overall_raft < 1500
