"""Exact counts of the timer and serve objects a seeded run builds.

A flat chain's one-waiter stage goes through ``Environment.after`` /
``Resource.serve_then`` and builds no event; only timers that are
yielded, raced, joined, cancelled or read are ``Timeout`` leases, and
only a contended ``serve_then`` queues a ``_ServeRequest``; an
``AnyOf`` is built only where two events race.  These literals pin that, so a stage that quietly goes back to
``timeout(d).callbacks.append(cb)`` shows up here as a count.  The
same holds for per-transaction generators: a flow that goes back to a
spawned ``Process`` shows up in the process count.
"""

import gc
import weakref

import pytest

from repro.bench.harness import SMOKE, run_point
from repro.sim import Environment, kernel, resources
from repro.systems import FabricSystem, SystemConfig, fabric
from repro.txn import Transaction, TxnStatus

#: (Timeout constructions, _ServeRequest constructions,
#: AnyOf constructions) over run_point(system, scale=SMOKE, seed=3).
OBJECT_COUNTS = {
    "tidb": (766, 8_167, 740),
    "fabric": (309, 5_553, 268),
}


def _count_calls(monkeypatch, counts, key, cls, name):
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(cls, name, wrapper)


@pytest.mark.parametrize("system", sorted(OBJECT_COUNTS))
def test_timer_and_serve_object_counts_pinned(system, monkeypatch):
    counts = {"timeouts": 0, "serves": 0, "any_of": 0}
    _count_calls(monkeypatch, counts, "timeouts", kernel.Timeout, "__init__")
    _count_calls(monkeypatch, counts, "serves",
                 resources._ServeRequest, "__init__")
    _count_calls(monkeypatch, counts, "any_of", kernel.AnyOf, "__init__")
    run_point(system, scale=SMOKE, seed=3)
    assert (counts["timeouts"], counts["serves"],
            counts["any_of"]) == OBJECT_COUNTS[system]


#: (Process constructions, tps) per seeded SMOKE run (seed 3): every
#: query path, fabric's update path and its concurrent-validation
#: ablation.  ahl and spanner shard over six nodes.  Each count is the
#: system's long-lived loops (consensus timers and leaders, commit and
#: block-producer loops) plus the driver's watchdog.
PROCESS_COUNTS = {
    "ahl-query": (15, 62500.000000000015),
    "etcd-query": (7, 57403.74348945868),
    "fabric-query": (11, 14738.97858485368),
    "quorum-query": (12, 16172.785729996422),
    "spanner-query": (1, 58348.503944358825),
    "tidb-query": (31, 39803.25516327825),
    "tikv-query": (31, 51244.90967230587),
    "veritas-query": (7, 59171.59763313607),
    "fabric-update": (11, 1131.4258880742786),
    "fabric-concurrent-validation": (11, 1862.2157985140454),
}


def _process_run(case):
    system, _, flavour = case.partition("-")
    if flavour == "query":
        return run_point(system, mode="query", scale=SMOKE, seed=3,
                         num_nodes=6 if system in ("ahl", "spanner") else 5)
    kwargs = ({"serial_validation": False}
              if flavour == "concurrent-validation" else {})
    return run_point(system, scale=SMOKE, seed=3, system_kwargs=kwargs)


@pytest.mark.parametrize("case", sorted(PROCESS_COUNTS))
def test_process_count_pinned(case, monkeypatch):
    counts = {"processes": 0}
    _count_calls(monkeypatch, counts, "processes", kernel.Process, "__init__")
    result = _process_run(case)
    assert (counts["processes"], result.tps) == PROCESS_COUNTS[case]


#: (Event constructions, tps) over run_point("ahl", scale=SMOKE, seed=3,
#: num_nodes=6, ops_per_txn=2): two shards, so single- and cross-shard
#: transactions both take shard pipeline slots.  Subclass constructions
#: (timers, joins, processes) count too.  A slot outside a
#: reconfiguration pause builds no event at its pause gate (17,519
#: before that gate stopped building one).  Every timer is a fresh
#: construction (16,607 plus 159 recycled timers while the kernel still
#: pooled them: the same 16,766 events).
AHL_EVENT_COUNT = (16_766, 96.26389141433086)


def test_ahl_event_count_pinned(monkeypatch):
    counts = {"events": 0}
    _count_calls(monkeypatch, counts, "events", kernel.Event, "__init__")
    result = run_point("ahl", scale=SMOKE, seed=3, num_nodes=6,
                       ops_per_txn=2)
    assert (counts["events"], result.tps) == AHL_EVENT_COUNT


def test_fabric_endorsement_probes_dropped_before_ordering(monkeypatch):
    """A transaction waiting for ordering keeps none of its endorsements."""
    probes = []
    simulated = fabric._Endorsement._simulated

    def recording(self, arg):
        simulated(self, arg)
        probes.append(weakref.ref(self.result[1]))
    monkeypatch.setattr(fabric._Endorsement, "_simulated", recording)

    env = Environment()
    system = FabricSystem(env, SystemConfig(num_nodes=3, seed=1))
    system.load({"k": b"v"})
    txn = Transaction.update("k", b"w")
    done = system.submit(txn)
    append = system.ordering.append
    live_at_append = []

    def checking_append(item, size=256):
        assert item is txn and txn.write_set == {"k": b"w"}
        gc.collect()
        live_at_append.append(sum(ref() is not None for ref in probes))
        return append(item, size=size)
    system.ordering.append = checking_append
    env.run(until=5)
    assert len(probes) == 3
    assert live_at_append == [0]
    assert done.triggered and txn.status is TxnStatus.COMMITTED
