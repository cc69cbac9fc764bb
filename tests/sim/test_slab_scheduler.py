"""Tests for the slab scheduler, WakeableQueue, and timer cancellation.

The slab scheduler coalesces same-(time, priority) bursts behind single
heap entries; these tests pin down the ordering contract the rest of the
simulator (and the seeded fingerprints) depend on: same-time FIFO within
a priority, priority dominating insertion order, and new same-time events
always running after everything already queued.
"""

from __future__ import annotations

import pytest

from repro.sim.kernel import Event, SimulationError, WakeableQueue


# -- slab ordering ----------------------------------------------------------


def test_same_time_burst_dispatches_fifo(env):
    order = []
    events = []
    for i in range(50):
        ev = Event(env)
        ev.callbacks.append(lambda _e, i=i: order.append(i))
        events.append(ev)
    # a same-time burst: all succeed() calls land at t=0 back to back
    for ev in events:
        ev.succeed()
    env.run()
    assert order == list(range(50))


def test_priority_dominates_insertion_order(env):
    """Event dispatches (prio 0) run before scheduled calls (prio 1) at
    the same timestamp, regardless of which was scheduled first."""
    order = []
    env._schedule_call(lambda _a: order.append("call-early"), None)
    ev = Event(env)
    ev.callbacks.append(lambda _e: order.append("event"))
    ev.succeed()
    env._schedule_call(lambda _a: order.append("call-late"), None)
    env.run()
    assert order == ["event", "call-early", "call-late"]


def test_interleaved_keys_preserve_global_order(env):
    """A burst split across keys (the memo only coalesces consecutive
    same-key pushes) still dispatches in global schedule order."""
    order = []

    def tick(label, delay):
        yield env.timeout(delay)
        order.append(label)

    # interleave two future timestamps so neither forms one slab
    for i in range(4):
        env.process(tick(("a", i), 1.0))
        env.process(tick(("b", i), 2.0))
    env.run()
    assert order == [("a", i) for i in range(4)] + [("b", i) for i in range(4)]


def test_same_time_event_scheduled_during_dispatch_runs_last(env):
    order = []
    late = Event(env)
    late.callbacks.append(lambda _e: order.append("late"))

    first = Event(env)
    first.callbacks.append(lambda _e: (order.append("first"), late.succeed()))
    second = Event(env)
    second.callbacks.append(lambda _e: order.append("second"))
    first.succeed()
    second.succeed()
    env.run()
    # "late" was scheduled while the same-time slab was being consumed:
    # it must run after everything already queued at t=0
    assert order == ["first", "second", "late"]


def test_prio0_scheduled_during_prio1_jumps_ahead(env):
    """A same-time event dispatch scheduled from a prio-1 call runs
    before the remaining prio-1 entries (prio dominates seq)."""
    order = []
    ev = Event(env)
    ev.callbacks.append(lambda _e: order.append("event"))

    def call_a(_):
        order.append("a")
        ev.succeed()

    env._schedule_call(call_a, None)
    env._schedule_call(lambda _a: order.append("b"), None)
    env.run()
    assert order == ["a", "event", "b"]


def test_mixed_singletons_and_bursts_across_times(env):
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("s1", 1.0))
    for i in range(3):
        env.process(worker(f"burst{i}", 2.0))
    env.process(worker("s2", 3.0))
    env.run()
    assert log == [(1.0, "s1"), (2.0, "burst0"), (2.0, "burst1"),
                   (2.0, "burst2"), (3.0, "s2")]


def test_pending_counts_slab_entries(env):
    for _ in range(5):
        env.timeout(1.0)   # one coalesced slab
    env.timeout(2.0)       # singleton
    assert env.pending == 6
    timers = [env.timeout(3.0) for _ in range(3)]
    assert env.pending == 9
    for t in timers:
        t.cancel()
    assert env.pending == 6


def test_compact_preserves_slab_and_singleton_order(env):
    fired = []
    live_burst = [env.timeout(2.0, value=i) for i in range(4)]
    for t in live_burst:
        t.callbacks.append(lambda e: fired.append(("burst", e.value)))
    lone = env.timeout(1.0)
    lone.callbacks.append(lambda e: fired.append(("lone", None)))
    dead = [env.timeout(1.5) for _ in range(100)]
    for t in dead:
        t.cancel()
    env._compact()
    assert env._cancelled_count == 0
    env.run()
    assert fired == [("lone", None)] + [("burst", i) for i in range(4)]


def test_step_walks_slab_entries_one_at_a_time(env):
    fired = []
    for i in range(3):
        t = env.timeout(1.0, value=i)
        t.callbacks.append(lambda e: fired.append(e.value))
    env.step()
    assert fired == [0]
    env.step()
    env.step()
    assert fired == [0, 1, 2]
    with pytest.raises(SimulationError):
        env.step()


# -- WakeableQueue ----------------------------------------------------------


def test_put_wakes_parked_consumer_same_time(env):
    queue = WakeableQueue(env)
    log = []

    def consumer():
        while True:
            if not queue:
                yield queue.wait()
            log.append((env.now, queue.take(10)))

    def producer():
        yield env.timeout(5.0)
        queue.put("a")
        yield env.timeout(3.0)
        queue.put("b")
        queue.put("c")

    env.process(consumer())
    env.process(producer())
    env.run(until=20.0)
    # consumer observed each put at the exact simulated put time
    assert log == [(5.0, ["a"]), (8.0, ["b", "c"])]


def test_threshold_waiter_fires_only_on_reaching_put(env):
    queue = WakeableQueue(env)
    fired = []
    kick = queue.wait(3)
    kick.callbacks.append(lambda _e: fired.append(env.now))
    queue.put(1)
    queue.put(2)
    env.run()
    assert fired == []          # below threshold: armed, silent
    queue.put(3)
    env.run()
    assert fired == [0.0]


def test_threshold_waiter_never_fires_retroactively(env):
    """A backlog >= threshold does not re-kick until a NEW put arrives —
    the max-batch contract of the consensus leader loops."""
    queue = WakeableQueue(env)
    for i in range(5):
        queue.put(i)
    fired = []
    kick = queue.wait(3)
    kick.callbacks.append(lambda _e: fired.append("kick"))
    env.run()
    assert fired == []
    queue.put(99)               # new put with len >= threshold: fires
    env.run()
    assert fired == ["kick"]


def test_cancel_wait_disarms(env):
    queue = WakeableQueue(env)
    waiter = queue.wait()
    queue.cancel_wait(waiter)
    queue.put("x")
    env.run()
    assert not waiter.triggered
    assert len(queue) == 1


def test_take_and_drain_are_fifo(env):
    queue = WakeableQueue(env)
    for i in range(6):
        queue.put(i)
    assert queue.take(4) == [0, 1, 2, 3]
    assert queue.drain() == [4, 5]
    assert not queue
    assert queue.take(3) == []


def test_cancel_wait_after_parked_waiter_loses_race(env):
    """A consumer parked on queue.wait() that loses its race to a timer
    disarms the waiter with cancel_wait: a later put neither fires the
    waiter nor resumes the consumer."""
    queue = WakeableQueue(env)
    log = []
    waiter = queue.wait()

    def consumer():
        value = yield env.any_of([waiter, env.timeout(2.0, "round-over")])
        queue.cancel_wait(waiter)
        log.append((env.now, value))

    env.process(consumer())
    env.run()
    assert log == [(2.0, "round-over")]
    queue.put("x")
    env.run()
    assert log == [(2.0, "round-over")]
    assert not waiter.triggered
    assert len(queue) == 1


# -- timeout_at -------------------------------------------------------------


def test_timeout_at_hits_exact_absolute_time(env):
    fired = []

    def proc():
        yield env.timeout(0.1)
        # accumulate a boundary the way a polling loop would
        boundary = env.now
        for _ in range(7):
            boundary += 0.001
        timer = env.timeout_at(boundary)
        yield timer
        fired.append(env.now == boundary)

    env.process(proc())
    env.run()
    assert fired == [True]


def test_timeout_at_past_rejected(env):
    env.timeout(1.0)
    env.run()
    with pytest.raises(ValueError):
        env.timeout_at(0.5)


# -- Timeout.cancel ---------------------------------------------------------


def test_cancel_withdraws_live_timer(env):
    timer = env.timeout_at(5.0)
    assert timer.cancel() is True
    env.run()
    assert not timer.triggered
    assert env.now == 0.0


def test_cancel_after_fire_returns_false(env):
    timer = env.timeout_at(1.0)
    env.run()
    assert timer.triggered
    assert timer.cancel() is False
    assert env._cancelled_count == 0


def test_double_cancel_of_timeout_at_counts_once(env):
    timer = env.timeout_at(5.0)
    assert timer.cancel() is True
    assert timer.cancel() is False
    assert env._cancelled_count == 1
