"""Figure 9: throughput and abort rate under Zipfian skew (single-record
read-modify-write transactions).

Paper: TiDB collapses from 5461 to 173 tps as theta goes 0 -> 1 while
only ~30% of its transactions abort (the latch-contention effect);
Fabric loses ~31% throughput with ~44% aborts at theta=1; etcd and
Quorum are unaffected (serial execution, no concurrency control).
"""

from repro.bench.sweep import run_figure

from conftest import CONFLICT_SCALE, run_once


def test_fig9_skew(benchmark):
    thetas = (0.0, 0.6, 1.0)
    result = run_once(benchmark, run_figure, "fig9", scale=CONFLICT_SCALE,
                      thetas=thetas)
    measured = result["measured"]
    print("\n=== Fig 9: skew sweep (tps / abort%) ===")
    for system in measured:
        line = f"  {system:8s}"
        for theta in thetas:
            tps = measured[system]["tps"][theta]
            ab = measured[system]["abort_rate"][theta]
            line += f"   θ={theta}: {tps:7.0f} ({ab:5.1%})"
        print(line)

    tidb = measured["tidb"]
    fabric = measured["fabric"]
    # Shape claim 1: TiDB's collapse is drastic and disproportionate to
    # its abort rate (paper: -97% tps at 30% aborts; we accept >= 4x drop
    # with abort rate well below the throughput loss).
    drop = tidb["tps"][0.0] / max(tidb["tps"][1.0], 1.0)
    assert drop > 4.0
    assert tidb["abort_rate"][1.0] < 0.6
    assert (1 - tidb["tps"][1.0] / tidb["tps"][0.0]) \
        > 2 * tidb["abort_rate"][1.0]
    # Shape claim 2: Fabric's abort rate rises steeply with skew
    # (optimistic validation) while its throughput drop stays moderate.
    assert fabric["abort_rate"][1.0] > 0.25
    assert fabric["abort_rate"][1.0] > fabric["abort_rate"][0.0] + 0.15
    assert fabric["tps"][1.0] > 0.3 * fabric["tps"][0.0]
    # Shape claim 3: serial-execution systems are insensitive to skew.
    for system in ("etcd", "quorum"):
        tps = measured[system]["tps"]
        assert min(tps.values()) > 0.8 * max(tps.values()), system
        assert all(rate < 0.02
                   for rate in measured[system]["abort_rate"].values())
