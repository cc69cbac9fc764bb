"""Figure 10: throughput and abort rate as operations per transaction grow
(total transaction payload fixed at 1000 bytes).

Paper: Fabric, TiDB and etcd throughput drops with more ops (TiDB at 10
ops reaches only 32% of its 1-op throughput); abort rates climb to 87%
(Fabric) and 26.9% (TiDB); Fabric aborts split ~14% inconsistent reads /
~86% read-write conflicts; Quorum is unaffected (serial, no cross-shard).
"""

from repro.bench.sweep import run_figure

from conftest import CONFLICT_SCALE, run_once


def test_fig10_opcount(benchmark):
    op_counts = (1, 4, 10)
    result = run_once(benchmark, run_figure, "fig10", scale=CONFLICT_SCALE,
                      op_counts=op_counts)
    measured = result["measured"]
    print("\n=== Fig 10: ops/txn sweep (tps / abort%) ===")
    for system in measured:
        line = f"  {system:8s}"
        for ops in op_counts:
            tps = measured[system]["tps"][ops]
            ab = measured[system]["abort_rate"][ops]
            line += f"   ops={ops}: {tps:7.0f} ({ab:5.1%})"
        print(line)
    print("  fabric abort reasons at 10 ops:",
          measured["fabric"]["abort_reasons"][10])

    tidb = measured["tidb"]
    fabric = measured["fabric"]
    # Shape claim 1: TiDB throughput at 10 ops is a small fraction of its
    # 1-op throughput (paper: 32%).
    assert tidb["tps"][10] < 0.6 * tidb["tps"][1]
    # Shape claim 2: Fabric's abort rate grows steeply with op count.
    assert fabric["abort_rate"][10] > fabric["abort_rate"][1] + 0.2
    assert fabric["abort_rate"][10] > 0.4
    # Shape claim 3: Fabric aborts include both categories, and
    # read-write conflicts dominate (paper: 86% vs 14%).
    reasons = measured["fabric"]["abort_reasons"][10]
    rw = reasons.get("read-write conflict", 0)
    inconsistent = reasons.get("inconsistent read", 0)
    assert rw > 0
    assert rw > inconsistent
    # Shape claim 4: TiDB also aborts more with more ops (ww conflicts).
    assert tidb["abort_rate"][10] > tidb["abort_rate"][1]
