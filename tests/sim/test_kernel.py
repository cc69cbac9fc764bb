"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import Environment, SimulationError


def test_timeout_advances_clock(env):
    log = []

    def proc(env):
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(0.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [1.5, 2.0]


def test_timeout_rejects_negative_delay(env):
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_processes_run_in_fifo_order_at_same_time(env):
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_value_passes_to_waiter(env):
    got = []

    def waiter(env, ev):
        value = yield ev
        got.append(value)

    ev = env.event()

    def firer(env):
        yield env.timeout(1.0)
        ev.succeed(42)

    env.process(waiter(env, ev))
    env.process(firer(env))
    env.run()
    assert got == [42]


def test_event_failure_raises_in_waiter(env):
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(env, ev))

    def firer(env):
        yield env.timeout(0.1)
        ev.fail(RuntimeError("boom"))

    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_event_double_trigger_is_error(env):
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_value_before_trigger_is_error(env):
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception_instance(env):
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_is_event_with_return_value(env):
    def inner(env):
        yield env.timeout(1.0)
        return "result"

    def outer(env):
        value = yield env.process(inner(env))
        return value

    proc = env.process(outer(env))
    env.run()
    assert proc.triggered and proc.value == "result"


def test_yield_non_event_raises(env):
    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_any_of_timeout_does_not_fire_early(env):
    """A pending Timeout inside AnyOf must not count as triggered."""
    outcomes = []

    def proc(env):
        ev = env.event()
        timer = env.timeout(5.0)
        result = yield env.any_of([ev, timer])
        outcomes.append((env.now, ev.triggered))

    env.process(proc(env))
    env.run()
    assert outcomes == [(5.0, False)]


def test_any_of_first_event_wins(env):
    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(2.0, value="slow")
        value = yield env.any_of([fast, slow])
        return value

    proc = env.process(proc(env))
    env.run()
    assert proc.value == "fast"


def test_all_of_waits_for_every_event(env):
    times = []

    def proc(env):
        values = yield env.all_of([env.timeout(1.0, "a"),
                                   env.timeout(3.0, "b"),
                                   env.timeout(2.0, "c")])
        times.append(env.now)
        return values

    proc = env.process(proc(env))
    env.run()
    assert times == [3.0]
    assert proc.value == ["a", "b", "c"]


def test_all_of_with_already_triggered_events(env):
    def proc(env):
        ev = env.event()
        ev.succeed("x")
        yield env.timeout(0.1)
        values = yield env.all_of([ev, env.timeout(0.1, "y")])
        return values

    proc = env.process(proc(env))
    env.run()
    assert proc.value == ["x", "y"]


def test_all_of_propagates_failure(env):
    """Fail-fast with the first failure's exception; a second failure at
    the same instant and a later success reach a settled join and are
    absorbed (no SimulationError from a double trigger)."""
    caught = []

    def proc(env):
        bad, worse = env.event(), env.event()

        def failer(env):
            yield env.timeout(1.0)
            bad.fail(ValueError("nope"))
            worse.fail(ValueError("same instant"))

        env.process(failer(env))
        try:
            yield env.all_of([bad, worse, env.timeout(10.0)])
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    env.process(proc(env))
    env.run(until=20)
    assert caught == [(1.0, "nope")]


def test_run_until_stops_clock_exactly(env):
    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=5.5)
    assert env.now == 5.5
    assert env.pending > 0


def test_run_until_past_is_error(env):
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_step_executes_single_callback(env):
    log = []

    def proc(env):
        yield env.timeout(1.0)
        log.append("done")

    env.process(proc(env))
    env.step()  # bootstrap resume
    assert log == []


def test_step_on_empty_schedule_raises(env):
    with pytest.raises(SimulationError):
        env.step()


def test_process_exception_without_waiter_propagates(env):
    def bad(env):
        yield env.timeout(1.0)
        raise KeyError("unhandled")

    env.process(bad(env))
    with pytest.raises(KeyError):
        env.run()


def test_process_exception_with_waiter_is_delivered(env):
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise KeyError("delivered")

    def waiter(env):
        try:
            yield env.process(bad(env))
        except KeyError:
            caught.append(env.now)

    env.process(waiter(env))
    env.run()
    assert caught == [1.0]


def test_determinism_across_identical_runs():
    def run_once():
        env = Environment()
        trace = []

        def proc(env, name, delay):
            for i in range(3):
                yield env.timeout(delay)
                trace.append((round(env.now, 9), name, i))

        env.process(proc(env, "a", 0.3))
        env.process(proc(env, "b", 0.2))
        env.run()
        return trace

    assert run_once() == run_once()


def test_nested_timeout_chain_scales(env):
    """A long chain of events runs in bounded time and correct order."""
    count = 0

    def proc(env):
        nonlocal count
        for _ in range(10_000):
            yield env.timeout(0.001)
            count += 1

    env.process(proc(env))
    env.run()
    assert count == 10_000
    assert abs(env.now - 10.0) < 1e-6
