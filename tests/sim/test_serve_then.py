"""Tests for Resource.serve_then, the one grant -> service -> release
core, and Environment.after, the one-waiter timer it runs on."""

import pytest

from repro.sim import Environment
from repro.sim.resources import Resource


#: ``(at, service_time, name)``: two tied pairs, then two lone jobs.
JOBS = [(0.0, 1.0, "a"), (0.0, 0.5, "b"), (0.25, 2.0, "c"),
        (0.25, 0.25, "d"), (3.0, 1.0, "e"), (6.0, 0.5, "f")]

#: Instants at which both runs sample the resource's accounting.
PROBES = (0.1, 0.3, 0.75, 1.2, 2.0, 3.6, 5.0, 6.25)


def _sample(env, res):
    """Run to each probe instant and read the resource's accounting."""
    samples = []
    for t in PROBES:
        env.run(until=t)
        samples.append((res.in_use, res.queue_length, res.total_requests,
                        res.busy_time, res.utilization()))
    env.run()
    samples.append((res.in_use, res.queue_length, res.total_requests,
                    res.busy_time, res.utilization()))
    return samples


def _serve_then_run(capacity, jobs):
    """Submit ``(at, service_time, name)`` jobs through serve_then; return
    the ``(finish, name)`` log and the accounting samples."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    log = []

    def submit(job):
        _at, service, name = job
        res.serve_then(service, lambda _arg: log.append((env.now, name)))

    for job in jobs:
        env.after(job[0], submit, job)
    return log, _sample(env, res)


def _serve_event_run(capacity, jobs):
    """The same schedule through ``yield serve_event(...)``."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    log = []

    def worker(env, at, service, name):
        yield env.timeout(at)
        yield res.serve_event(service)
        log.append((env.now, name))

    for job in jobs:
        env.process(worker(env, *job))
    return log, _sample(env, res)


def test_serve_then_fifo_grants_capacity_one():
    log, _samples = _serve_then_run(1, JOBS)
    # one slot: each job starts when its predecessor releases
    assert log == [(1.0, "a"), (1.5, "b"), (3.5, "c"), (3.75, "d"),
                   (4.75, "e"), (6.5, "f")]


def test_serve_then_fifo_grants_capacity_two():
    log, _samples = _serve_then_run(2, JOBS)
    # a, b start at 0; c takes b's slot at 0.5, d takes a's at 1.0
    assert log == [(0.5, "b"), (1.0, "a"), (1.25, "d"), (2.5, "c"),
                   (4.0, "e"), (6.5, "f")]


@pytest.mark.parametrize("capacity", [1, 2])
def test_serve_then_accounting_matches_serve_event(capacity):
    """in_use, queue_length, total_requests, busy_time and utilization()
    read the same as a serve_event run of the same schedule, mid-run at
    every probe and after the run."""
    flat_log, flat = _serve_then_run(capacity, JOBS)
    evented_log, evented = _serve_event_run(capacity, JOBS)
    assert flat_log == evented_log
    assert flat == evented
    assert any(queue for _use, queue, *_rest in flat)   # contention seen
    assert flat[-1][:3] == (0, 0, len(JOBS))


def test_release_grants_queued_serve_then_and_request_in_arrival_order(env):
    """A manual holder's release() hands the slot to whichever waiter
    queued first, a serve_then or a request(), and so on down the queue."""
    res = Resource(env, capacity=1)
    log = []
    holder = res.request()
    assert holder.triggered

    res.serve_then(1.0, lambda _arg: log.append((env.now, "serve-1")))
    queued = res.request()
    queued.callbacks.append(lambda _ev: log.append((env.now, "request")))
    res.serve_then(0.5, lambda _arg: log.append((env.now, "serve-2")))
    assert res.queue_length == 3

    def release_later(_arg):
        res.release(holder)

    def release_queued(_ev):
        env.after(2.0, lambda _arg: res.release(queued))

    env.after(1.0, release_later)
    queued.callbacks.append(release_queued)
    env.run()
    # serve-1 granted at 1, done at 2; the request granted at 2 holds
    # until 4; serve-2 granted at 4, done at 4.5
    assert log == [(2.0, "serve-1"), (2.0, "request"), (4.5, "serve-2")]
    assert res.in_use == 0
    assert res.queue_length == 0


def test_serve_then_releases_before_then_runs(env):
    """``then`` runs after the release has already handed the slot to
    the next queued serve."""
    res = Resource(env, capacity=1)
    seen = []
    res.serve_then(1.0, lambda _arg: seen.append(
        (res.in_use, res.queue_length)))
    res.serve_then(1.0, lambda _arg: None)
    env.run()
    assert seen == [(1, 0)]


def test_after_calls_func_with_arg(env):
    seen = []
    env.after(0.5, seen.append, "x")
    env.after(0.25, lambda arg: seen.append((env.now, arg)))
    env.run()
    assert seen == [(0.25, None), "x"]
    assert env.now == 0.5


def test_after_negative_delay_raises(env):
    with pytest.raises(ValueError):
        env.after(-1e-9, lambda _arg: None)
    assert env.pending == 0
