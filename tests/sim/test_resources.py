"""Tests for Resource and Store."""

import pytest

from repro.sim.kernel import Environment
from repro.sim.resources import Resource, Store


def test_resource_capacity_enforced(env):
    res = Resource(env, capacity=2)
    active = []
    peak = []

    def worker(env, name):
        yield res.serve_event(1.0)
        active.append(name)

    def sampler(env):
        for _ in range(19):  # sample up to t=1.9 (workers finish at t=2)
            yield env.timeout(0.1)
            peak.append(res.in_use)

    for i in range(4):
        env.process(worker(env, i))
    env.process(sampler(env))
    env.run()
    assert len(active) == 4
    assert max(peak) == 2  # both slots busy, never more


def test_resource_fifo_order(env):
    res = Resource(env, capacity=1)
    order = []

    def worker(env, name):
        req = res.request()
        yield req
        order.append(name)
        yield env.timeout(0.1)
        res.release(req)

    for name in "abcd":
        env.process(worker(env, name))
    env.run()
    assert order == list("abcd")


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_without_request_raises(env):
    res = Resource(env, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(RuntimeError):
        res.release(req)


def test_resource_utilization_tracks_busy_time(env):
    res = Resource(env, capacity=1)

    def worker(env):
        yield res.serve_event(2.0)
        yield env.timeout(2.0)  # idle period
        yield res.serve_event(1.0)

    env.process(worker(env))
    env.run()
    assert env.now == 5.0
    assert res.utilization() == pytest.approx(3.0 / 5.0)


def test_resource_queue_length(env):
    res = Resource(env, capacity=1)
    observed = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(1.0)
        observed.append(res.queue_length)
        res.release(req)

    def waiter(env):
        yield res.serve_event(0.1)

    env.process(holder(env))
    env.process(waiter(env))
    env.process(waiter(env))
    env.run()
    assert observed == [2]


def test_store_fifo_and_blocking(env):
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    def producer(env):
        yield env.timeout(1.0)
        store.put("a")
        store.put("b")
        yield env.timeout(1.0)
        store.put("c")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(1.0, "a"), (1.0, "b"), (2.0, "c")]


def test_store_get_all_drains(env):
    store = Store(env)
    store.put(1)
    store.put(2)
    assert store.get_all() == [1, 2]
    assert len(store) == 0


def test_store_immediate_get_when_item_queued(env):
    store = Store(env)
    store.put("ready")
    ev = store.get()
    assert ev.triggered and ev.value == "ready"
