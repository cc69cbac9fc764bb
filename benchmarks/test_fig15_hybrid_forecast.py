"""Figure 15: the hybrid-system throughput forecast framework.

The framework predicts throughput bands from the replication model and
failure model.  Validation is threefold: (1) the predicted ordering
matches the throughputs the hybrid systems' own papers report (e.g.
Veritas 29k over ChainifyDB 6.1k); (2) simulating the six hybrids with
our composed models lands each inside its predicted band; (3) the
measured ordering matches the forecast ordering.
"""

from repro.bench.sweep import run_figure
from repro.core import BAND_RANGES, ThroughputBand

from conftest import BENCH_SCALE, run_once


def test_fig15_hybrid_forecast(benchmark):
    result = run_once(benchmark, run_figure, "fig15",
                      scale=BENCH_SCALE, simulate=True)
    forecasts = result["forecast"]
    reported = result["reported"]
    simulated = result["simulated"]
    print("\n=== Fig 15: hybrid forecast vs reported vs simulated ===")
    for name in result["ranking"]:
        f = forecasts[name]
        print(f"  {name:13s} band={f['band']:6s} score={f['score']:4.1f}"
              f"  reported ~{reported[name]:>8,.0f}"
              f"  simulated {simulated[name]:>9,.0f}")

    # Claim 1: prediction ordering vs reported ordering (strict where the
    # scores differ).
    ranking = result["ranking"]
    for i in range(len(ranking) - 1):
        hi, lo = ranking[i], ranking[i + 1]
        if forecasts[hi]["score"] > forecasts[lo]["score"]:
            assert reported[hi] >= reported[lo], (hi, lo)
    # Claim 2: each simulated hybrid lands inside its predicted band.
    for name, f in forecasts.items():
        lo, hi = f["range"]
        assert lo <= simulated[name] <= hi, \
            f"{name}: {simulated[name]} outside {f['band']} band"
    # Claim 3: simulated ordering follows the score ordering.
    for i in range(len(ranking) - 1):
        hi, lo = ranking[i], ranking[i + 1]
        if forecasts[hi]["score"] > forecasts[lo]["score"]:
            assert simulated[hi] > simulated[lo], (hi, lo)
    # Claim 4: the headline Section 5.6 comparison — the storage-based
    # CFT shared-log hybrid beats the transaction-based one (29k vs 6.1k).
    assert simulated["veritas"] > 2 * simulated["chainifydb"]
    # Claim 5: bands are anchored to our measured Fig. 4 world.
    assert BAND_RANGES[ThroughputBand.HIGH][0] == 10_000.0
