"""Figure 8: latency breakdown.

8a — Fabric update phases (execute / order / validate), unsaturated vs
saturated: unsaturated order and validate ~700 ms each, execute below
500 ms; when saturated, validation becomes the bottleneck and total
latency explodes (blocks pile up before the serial validator).

8b — query breakdown: Fabric spends most of its ~4.8 ms in client
authentication (4294 us) vs TiDB's parse 16 us / compile 15 us /
storage-get 275 us.
"""

from repro.bench.sweep import run_figure

from conftest import BENCH_SCALE, print_dict, run_once


def test_fig8_latency_breakdown(benchmark):
    result = run_once(benchmark, run_figure, "fig8", scale=BENCH_SCALE)
    unsat = result["fabric_unsaturated_ms"]
    sat = result["fabric_saturated_ms"]
    print_dict("Fig 8a Fabric unsaturated (ms)", unsat,
               result["paper"]["fabric_unsaturated_ms"])
    print_dict("Fig 8a Fabric saturated (ms)", sat)
    print_dict("Fig 8b Fabric query (us)", result["fabric_query_us"],
               result["paper"]["fabric_query_us"])
    print_dict("Fig 8b TiDB query (us)", result["tidb_query_us"],
               result["paper"]["tidb_query_us"])

    # 8a shape: order phase is the block-cut timeout (~700 ms) when
    # unsaturated; saturation inflates the validate phase most.
    assert 300 < unsat["order"] < 1200
    assert sat["validate"] > 3 * unsat["validate"]
    assert sat["validate"] > sat["execute"]
    # 8b shape: authentication dominates the Fabric query; the TiDB query
    # is dominated by storage-get and is ~10x cheaper overall.
    fq = result["fabric_query_us"]
    tq = result["tidb_query_us"]
    assert fq["authentication"] > 5 * (fq["simulation"] + fq["endorsement"])
    assert tq["storage-get"] > tq["sql-parse"] + tq["sql-compile"]
    assert sum(fq.values()) > 5 * sum(tq.values())
