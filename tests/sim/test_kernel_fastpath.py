"""Tests for the kernel hot-path machinery: cancellable timeouts, heap
compaction, stop-events, and the immediate-resume path."""

import pytest

from repro.sim.kernel import SimulationError, Timeout

NAN = float("nan")


# -- cancellable timeouts ---------------------------------------------------


def test_cancelled_timeout_never_fires(env):
    fired = []
    timer = env.timeout(1.0)
    timer.callbacks.append(lambda ev: fired.append(ev))
    assert timer.cancel() is True
    env.run()
    assert fired == []
    assert env.now == 0.0  # nothing left to simulate


def test_cancel_after_fire_is_noop(env):
    timer = env.timeout(1.0)
    env.run()
    assert timer.triggered
    assert timer.cancel() is False


def test_double_cancel_counts_once(env):
    timer = env.timeout(1.0)
    assert timer.cancel() is True
    assert timer.cancel() is False
    assert env._cancelled_count == 1
    env.run()
    assert env._cancelled_count == 0


def test_cancelled_timer_does_not_stall_other_events(env):
    log = []

    def proc():
        dead = env.timeout(100.0)
        yield env.timeout(1.0)
        dead.cancel()
        yield env.timeout(1.0)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [2.0]


def test_pending_excludes_cancelled(env):
    timers = [env.timeout(10.0 + i) for i in range(5)]
    assert env.pending == 5
    for t in timers[:3]:
        t.cancel()
    assert env.pending == 2


def test_cancel_churn_keeps_heap_compact(env):
    def churn():
        for _ in range(200):
            dead = env.timeout(1000.0)
            yield env.timeout(0.001)
            dead.cancel()

    env.process(churn())
    env.run()
    # Compaction sweeps the cancelled far-future timers out of the heap.
    assert len(env._queue) < 50


def test_compaction_preserves_live_entries(env):
    fired = []
    live = env.timeout(3.0)
    live.callbacks.append(lambda ev: fired.append(env.now))
    dead = [env.timeout(1.0) for _ in range(100)]
    for t in dead:
        t.cancel()
    env._compact()
    assert env._cancelled_count == 0
    env.run()
    assert fired == [3.0]


@pytest.mark.parametrize("call, error", [
    (lambda env: env.timeout(NAN), ValueError),
    (lambda env: Timeout(env, NAN), ValueError),
    (lambda env: env.timeout_at(NAN), ValueError),
    (lambda env: env.after(NAN, print), ValueError),
    (lambda env: env._schedule_call_at(print, None, NAN), SimulationError),
    (lambda env: env.run(until=NAN), SimulationError),
], ids=["timeout", "Timeout", "timeout_at", "after", "_schedule_call_at",
        "run_until"])
def test_nan_time_rejected(env, call, error):
    with pytest.raises(error):
        call(env)
    assert env._queue == []
    assert env.now == 0.0


# -- run(stop=...) ----------------------------------------------------------


def test_run_stop_event_halts_loop(env):
    log = []

    def worker():
        for _ in range(100):
            yield env.timeout(1.0)
            log.append(env.now)

    stop = env.event()

    def stopper():
        yield env.timeout(5.0)
        stop.succeed()

    env.process(worker())
    env.process(stopper())
    env.run(until=1000.0, stop=stop)
    # The loop halts at the stop trigger; the clock does NOT jump to until,
    # and same-time events queued behind the stop are not processed.
    assert env.now == 5.0
    assert log == [1.0, 2.0, 3.0, 4.0]


def test_run_without_stop_reaches_until(env):
    env.timeout(1.0)
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_stop_on_process_completion(env):
    def short():
        yield env.timeout(2.0)

    def forever():
        while True:
            yield env.timeout(0.5)

    proc = env.process(short())
    env.process(forever())
    env.run(until=100.0, stop=proc)
    assert env.now == 2.0


# -- immediate-resume path --------------------------------------------------


def test_yield_already_processed_event_resumes_same_timestep(env):
    done = env.event()
    done.succeed("payload")
    env.run()  # process the event fully: callbacks -> None
    assert done.processed
    log = []

    def waiter():
        value = yield done  # already processed: immediate resume
        log.append((env.now, value))
        yield env.timeout(1.0)
        log.append((env.now, "after"))

    env.process(waiter())
    env.run()
    assert log == [(0.0, "payload"), (1.0, "after")]


def test_yield_chain_of_processed_events(env):
    events = []
    for i in range(5):
        ev = env.event()
        ev.succeed(i)
        events.append(ev)
    env.run()
    seen = []

    def walker():
        for ev in events:
            seen.append((yield ev))

    env.process(walker())
    env.run()
    assert seen == [0, 1, 2, 3, 4]


def test_failed_processed_event_raises_on_yield(env):
    boom = env.event()
    boom.fail(RuntimeError("late failure"))
    env.run()
    caught = []

    def waiter():
        try:
            yield boom
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["late failure"]


def test_allof_waits_for_pending_despite_processed_component(env):
    """AllOf over {already-processed, still-pending} must NOT trigger
    until the pending component fires (regression: the counter hit zero
    and succeeded immediately with the pending event's value as None)."""
    done = env.event()
    done.succeed("early")
    env.run()
    assert done.processed
    later = env.event()
    cond = env.all_of([done, later])
    assert not cond.triggered
    later.succeed("late")
    env.run()
    assert cond.triggered
    assert cond.value == ["early", "late"]


@pytest.mark.parametrize("n, failed", [(0, None), (3, None), (3, 1)])
def test_allof_over_only_processed_components(env, n, failed):
    """Every component already processed, or none at all: the join
    settles at construction — on the failed component's exception if
    one failed."""
    events = []
    for i in range(n):
        ev = env.event()
        if i == failed:
            ev.fail(RuntimeError(f"dead {i}"))
        else:
            ev.succeed(i)
        events.append(ev)
    env.run()
    cond = env.all_of(events)
    assert cond.triggered
    if failed is None:
        assert cond.ok and cond.value == list(range(n))
    else:
        assert not cond.ok and str(cond.value) == f"dead {failed}"
    env.run()


# -- step() with cancelled entries ------------------------------------------


def test_step_skips_cancelled(env):
    dead = env.timeout(1.0)
    live = env.timeout(2.0)
    dead.cancel()
    env.step()  # must execute the live timer, skipping the dead one
    assert env.now == 2.0
    assert live.triggered


def test_step_empty_after_cancellations_raises(env):
    t = env.timeout(1.0)
    t.cancel()
    with pytest.raises(SimulationError):
        env.step()
