"""Exact counts of the timer and serve objects a seeded run builds.

A flat chain's one-waiter stage goes through ``Environment.after`` /
``Resource.serve_then`` and builds no event; only timers that are
yielded, raced, joined, cancelled or read are ``Timeout`` leases, and
only a contended ``serve_then`` queues a ``_ServeRequest``.  These
literals pin that, so a stage that quietly goes back to
``timeout(d).callbacks.append(cb)`` shows up here as a count.
"""

import pytest

from repro.bench.harness import SMOKE, run_point
from repro.sim import kernel, resources

#: (Timeout constructions + pool revivals, _ServeRequest constructions)
#: over run_point(system, scale=SMOKE, seed=3).
OBJECT_COUNTS = {
    "tidb": (1_369, 8_167),
    "fabric": (3_528, 5_553),
}


@pytest.mark.parametrize("system", sorted(OBJECT_COUNTS))
def test_timer_and_serve_object_counts_pinned(system, monkeypatch):
    counts = {"timeouts": 0, "serves": 0}

    def counting(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counting(kernel.Timeout, "__init__", "timeouts")
    counting(kernel.Environment, "_revive", "timeouts")
    counting(resources._ServeRequest, "__init__", "serves")
    run_point(system, scale=SMOKE, seed=3)
    assert (counts["timeouts"], counts["serves"]) == OBJECT_COUNTS[system]
