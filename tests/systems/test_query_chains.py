"""Every system's read-only query path, pinned as literals.

Queries skip consensus (Section 2.1): each system serves them on its own
short path of NIC hops, propagation delays, per-key reads and CPU
stages.  None of the seeded ``RunResult`` pins runs in query mode, so
these literals are the query paths' equivalence gate:

* one two-key query on a fresh system, as ``(env.now at done, heap
  entries pushed by then, status, phases)`` — a stage that moves, a
  push that appears or disappears, or a phase stamp that changes by an
  ulp shows up here;
* ``run_point(system, mode="query", scale=SMOKE, seed=3)`` for every
  dedicated model and one hybrid, as ``(measured, repr(tps),
  repr(latency mean))``;
* fabric's ``serial_validation=False`` ablation, whose block validation
  fans out one verification per transaction.
"""

import pytest

from repro.bench.harness import SMOKE, run_point
from repro.core.builder import build_system
from repro.sim import Environment
from repro.sim.kernel import subscribe
from repro.systems import SystemConfig
from repro.txn import Op, OpType, Transaction, TxnStatus

#: Systems whose sharding needs six nodes.
NUM_NODES = {"ahl": 6, "spanner": 6}

#: (env.now at done, env._seq at done, status, phases) of one two-key query.
ONE_QUERY = {
    "ahl": (0.0003, 14, TxnStatus.COMMITTED, {}),
    "etcd": (0.0003576389984328652, 51, TxnStatus.COMMITTED, {}),
    "fabric": (0.0050770960000000006, 36, TxnStatus.COMMITTED,
               {"authentication": 0.004294,
                "simulation": 0.0004060000000000001,
                "endorsement": 5.9000000000000025e-05}),
    "quorum": (0.00411656, 56, TxnStatus.COMMITTED, {}),
    "spanner": (0.000337768, 7, TxnStatus.COMMITTED, {}),
    "tidb": (0.0009705359999999998, 244, TxnStatus.COMMITTED,
             {"sql-parse": 1.600000000000001e-05,
              "sql-compile": 1.4999999999999985e-05,
              "storage-get": 0.0006239999999999999}),
    "tikv": (0.00041927999999999996, 233, TxnStatus.COMMITTED, {}),
    "veritas": (0.00032999999999999994, 27, TxnStatus.COMMITTED, {}),
}

#: (measured, repr(tps), repr(latency mean)) over
#: run_point(system, mode="query", scale=SMOKE, seed=3).
QUERY_RUNS = {
    "ahl": (300, "62500.000000000015", "0.00029999999999999927"),
    "etcd": (300, "57403.74348945868", "0.0003327800000000013"),
    "fabric": (300, "14738.97858485368", "0.005077095999999966"),
    "quorum": (300, "16172.785729996422", "0.00412950906666668"),
    "spanner": (300, "58348.503944358825", "0.0003227680000000009"),
    "tidb": (300, "39803.25516327825", "0.00067636416"),
    "tikv": (300, "51244.90967230587", "0.00039848133333333257"),
    "veritas": (300, "59171.59763313607", "0.00031499999999999936"),
}

#: The same triple for run_point("fabric", scale=SMOKE, seed=3,
#: system_kwargs={"serial_validation": False}).
FABRIC_CONCURRENT_VALIDATION = (300, "1862.2157985140454",
                                "0.1065219692898974")


def _one_query(name):
    env = Environment()
    system = build_system(env, name, SystemConfig(
        num_nodes=NUM_NODES.get(name, 5), seed=1))
    system.load({"a": b"1", "b": b"2"})
    txn = Transaction(ops=[Op(OpType.READ, "a"), Op(OpType.READ, "b")])
    done = system.submit_query(txn)
    seen = []
    subscribe(done, lambda ev: seen.append(
        (env.now, env._seq, ev.value.status, dict(ev.value.phases))))
    env.run(until=5)
    assert len(seen) == 1
    return seen[0]


def _triple(result):
    return (result.measured, repr(result.tps),
            repr(result.stats.latency.mean))


@pytest.mark.parametrize("name", sorted(ONE_QUERY))
def test_one_query_pinned(name):
    assert _one_query(name) == ONE_QUERY[name]


@pytest.mark.parametrize("name", sorted(QUERY_RUNS))
def test_query_run_pinned(name):
    result = run_point(name, mode="query", scale=SMOKE, seed=3,
                       num_nodes=NUM_NODES.get(name, 5))
    assert _triple(result) == QUERY_RUNS[name]


def test_fabric_concurrent_validation_pinned():
    result = run_point("fabric", scale=SMOKE, seed=3,
                       system_kwargs={"serial_validation": False})
    assert _triple(result) == FABRIC_CONCURRENT_VALIDATION
