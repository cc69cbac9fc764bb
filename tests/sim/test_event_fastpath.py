"""Tests for the flat-event fast paths: serve_event, the process
trampoline, inline resolution, waiters racing timers past
short-circuited chains, the fan-in join's pinned trace, and the fault
contract of the DB-side chain objects (crash a participant mid-2PC /
mid-update and the chain must abort cleanly: no leaked _ServeRequest,
resource counts restored, done fired exactly once)."""

import pytest

from repro.sim import Environment, Node
from repro.sim.kernel import _MAX_INLINE_DEPTH, subscribe
from repro.sim.resources import Resource


# -- serve_event: uncontended --------------------------------------------------


def test_serve_event_uncontended_holds_and_releases(env):
    res = Resource(env, capacity=1)
    finished = []

    def worker(env):
        yield res.serve_event(2.0)
        finished.append(env.now)

    env.process(worker(env))
    env.run(until=1.0)
    assert res.in_use == 1           # slot held during service
    env.run()
    assert finished == [2.0]
    assert res.in_use == 0           # released at service end
    assert res.total_requests == 1
    assert res.busy_time == pytest.approx(2.0)


def test_serve_event_staggered_completion_times(env):
    """4 staggered jobs on 2 slots: two fold grant+service into one
    timer, two queue.  The times are literals (the retired generator
    ``serve`` finished the same jobs at the same instants)."""
    res = Resource(env, capacity=2)
    finished = []

    def worker(env, delay):
        yield env.timeout(delay)
        yield res.serve_event(1.5)
        finished.append(env.now)

    for d in (0.0, 0.1, 0.2, 0.3):
        env.process(worker(env, d))
    env.run()
    assert finished == [1.5, 1.6, 3.0, 3.1]


# -- serve_event: contended ----------------------------------------------------


def test_serve_event_contended_fifo_order(env):
    res = Resource(env, capacity=1)
    finished = []

    def worker(env, name):
        yield res.serve_event(1.0)
        finished.append((env.now, name))

    for i in range(4):
        env.process(worker(env, i))
    env.run()
    # serial slot, FIFO grants: completion at 1, 2, 3, 4 in arrival order
    assert finished == [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]
    assert res.queue_length == 0
    assert res.in_use == 0


def test_serve_event_contended_service_starts_at_grant(env):
    res = Resource(env, capacity=1)
    finished = []

    def first(env):
        yield res.serve_event(3.0)
        finished.append(("first", env.now))

    def second(env):
        yield env.timeout(0.5)       # queues behind first at t=0.5
        yield res.serve_event(2.0)
        finished.append(("second", env.now))

    env.process(first(env))
    env.process(second(env))
    env.run()
    # second's service starts at t=3 (grant), not submission (t=0.5)
    assert finished == [("first", 3.0), ("second", 5.0)]


def test_serve_event_mixed_with_request_release(env):
    """Flat serves interleave correctly with manual request()/release()."""
    res = Resource(env, capacity=1)
    log = []

    def manual(env):
        req = res.request()
        yield req
        yield env.timeout(1.0)
        res.release(req)
        log.append(("manual", env.now))

    def flat(env):
        yield res.serve_event(1.0)
        log.append(("flat", env.now))

    env.process(manual(env))
    env.process(flat(env))
    env.run()
    assert log == [("manual", 1.0), ("flat", 2.0)]


# -- release validation (validate-first fix) ----------------------------------


def test_release_underflow_raises_without_corrupting(env):
    res = Resource(env, capacity=2)
    with pytest.raises(RuntimeError):
        res.release(None)
    # Validation happens before mutation: the resource is still usable.
    assert res.in_use == 0
    req = res.request()
    assert req.triggered
    assert res.in_use == 1
    res.release(req)
    assert res.in_use == 0
    with pytest.raises(RuntimeError):
        res.release(req)
    assert res.in_use == 0
    assert res.utilization() >= 0.0  # busy bookkeeping not corrupted


# -- the process trampoline ----------------------------------------------------


def test_trampoline_chain_of_resolved_events_is_flat(env):
    """A long chain of already-processed events resumes iteratively —
    no scheduler re-entry, no Python-stack growth, same timestep."""
    log = []

    def worker(env):
        for i in range(10_000):
            value = yield env.resolved(i)
            assert value == i
        log.append(env.now)

    env.process(worker(env))
    env.run()
    assert log == [0.0]


def test_resolved_event_carries_value_and_is_processed(env):
    ev = env.resolved("v")
    assert ev.triggered and ev.processed and ev.ok
    assert ev.value == "v"


def test_awaitable_call_helper_conditional_wait(env):
    """The flat-event protocol: a helper returns either a live event or
    a resolved one; the caller always yields it."""
    gate = {"open": True}
    pending = []

    def helper():
        if gate["open"]:
            return env.resolved("fast")
        ev = env.event()
        pending.append(ev)
        return ev

    log = []

    def worker(env):
        log.append((yield helper()))     # resolved: same-timestep
        gate["open"] = False
        log.append((yield helper()))     # live event: parks
        log.append(env.now)

    env.process(worker(env))
    env.run()
    assert log == ["fast"]
    pending[0].succeed("slow")
    env.run()
    assert log == ["fast", "slow", 0.0]


# -- inline resolution ---------------------------------------------------------


def test_resolve_runs_callbacks_inline(env):
    order = []
    ev = env.event()
    ev.callbacks.append(lambda e: order.append(("cb", e.value)))
    ev._resolve("x")
    order.append("after")
    assert order == [("cb", "x"), "after"]
    assert ev.processed and ev.ok and ev.value == "x"


def test_resolve_depth_limit_falls_back_to_heap(env):
    """Past _MAX_INLINE_DEPTH nested resolutions, delivery degrades to a
    scheduled succeed() — bounded stack, nothing lost."""
    depth = 2 * _MAX_INLINE_DEPTH
    events = [env.event() for _ in range(depth)]
    fired = []

    def chain(i):
        def cb(_ev):
            fired.append(i)
            if i + 1 < depth:
                events[i + 1]._resolve()
        return cb

    for i, ev in enumerate(events):
        ev.callbacks.append(chain(i))
    events[0]._resolve()
    # the first _MAX_INLINE_DEPTH - 1 nested resolutions ran inline...
    assert len(fired) == _MAX_INLINE_DEPTH
    # ...and the rest drain through the scheduler without stack growth.
    env.run()
    assert fired == list(range(depth))


def test_resolve_on_triggered_event_raises(env):
    ev = env.event()
    ev.succeed()
    from repro.sim.kernel import SimulationError
    with pytest.raises(SimulationError):
        ev._resolve()


# -- waiters that stop waiting, and chains that park --------------------------


def test_serve_event_holds_slot_after_waiter_moves_on(env):
    """A waiter that stops waiting on a flat serve (its timer won the
    race) resumes at the timer; the slot itself is held to the
    scheduled service end (the service is not cancelled)."""
    node = Node(env, "n", cores=1)
    log = []

    def worker(env):
        value = yield env.any_of([node.compute(5.0),
                                  env.timeout(1.0, "gave up")])
        log.append((env.now, value))

    env.process(worker(env))
    env.run(until=3.0)
    assert log == [(1.0, "gave up")]
    assert node.cpu.in_use == 1          # service still holds the core
    env.run()
    assert node.cpu.in_use == 0          # released at the scheduled end


def test_trampolined_chain_parks_on_live_event(env):
    """A process that trampolined through a chain of resolved events
    parks on the live event that follows and resumes when it fires."""
    log = []
    live = env.event()

    def worker(env):
        for i in range(100):
            yield env.resolved(i)
        value = yield live
        log.append((env.now, value))

    env.process(worker(env))

    def firer(env):
        yield env.timeout(2.0)
        live.succeed("woken")

    env.process(firer(env))
    env.run()
    assert log == [(2.0, "woken")]


def test_timer_cancel_alongside_serve_event(env):
    """Driver pattern over the flat path: AnyOf(serve, timer) with the
    losing timer cancelled — no dead heap entries linger."""
    res = Resource(env, capacity=1)
    log = []

    def worker(env):
        ev = res.serve_event(1.0)
        timer = env.timeout(60.0)
        yield env.any_of([ev, timer])
        assert ev.triggered and not timer.triggered
        assert timer.cancel()
        log.append(env.now)

    env.process(worker(env))
    env.run()
    assert log == [1.0]
    assert env.now == 1.0                # nothing waited for the dead timer


# -- the fan-in join: one pinned trace -----------------------------------------


FAN_IN_TRACE = [
    (0.0, "F3", []),
    (0.0, "G3", []),
    (0.5, "t05", "t05"),
    (1.0, "t1a", "t1a"),
    (1.0, "t1b", "t1b"),
    (1.0, "bad", "failed: participant died"),
    (1.0, "F1", ["early", "t05", "t1a", "t1b"]),
    (1.0, "F2", "failed: participant died"),
    (1.0, "G2", "failed: participant died"),
    (1.5, "F4", "failed: participant died"),
    (1.5, "G4", ["t05", "early"]),
    (2.0, "t2", "t2"),
    (2.0, "G1", ["t2", "early", "t1b", "t1a"]),
]


def test_fan_in_trace_pinned():
    """One fan-in trace, pinned as a literal: generator waiters
    (``yield env.all_of(...)``) and flat waiters parked on a join, over
    timers with tied instants, already-processed events and a failing
    event.  Each ``(now, label, value)`` entry is a dispatch; the order
    of entries at one instant is the cascade order the join must keep
    (the last completion succeeds the join through the scheduler, so
    the components' own dispatches at that instant come first)."""
    env = Environment()
    log = []

    def record(label):
        def on_done(ev):
            log.append((env.now, label,
                        ev._value if ev._ok else f"failed: {ev._value}"))
        return on_done

    early = env.resolved("early")
    t05 = env.timeout(0.5, "t05")
    t1a = env.timeout(1.0, "t1a")
    t1b = env.timeout(1.0, "t1b")        # tied with t1a
    t2 = env.timeout(2.0, "t2")
    bad = env.event()
    for ev in (t05, t1a, t1b, t2, bad):
        subscribe(ev, record(ev._value or "bad"))

    def waiter(label, events):
        try:
            values = yield env.all_of(events)
        except RuntimeError as exc:
            values = f"failed: {exc}"
        log.append((env.now, label, values))

    def failer():
        yield t1a
        bad.fail(RuntimeError("participant died"))

    def late():
        yield env.timeout(1.5)
        subscribe(env.all_of([t05, bad]), record("F4"))  # processed, failed
        yield from waiter("G4", [t05, early])            # all processed

    subscribe(env.all_of([early, t05, t1a, t1b]), record("F1"))
    subscribe(env.all_of([t1b, bad]), record("F2"))
    subscribe(env.all_of([]), record("F3"))
    env.process(waiter("G1", [t2, early, t1b, t1a]))
    env.process(failer())
    env.process(waiter("G2", [t1a, bad, t2]))
    env.process(waiter("G3", []))
    env.process(late())
    env.run()
    assert log == FAN_IN_TRACE


# -- one-waiter timer continuations: one pinned trace ----------------------


TIMER_TRACE = [
    (1.0, "serve-free"),
    (1.0, "timer-a"),
    (1.0, "proc"),
    (1.0, "signal"),
    (1.0, "timer-zero"),
    (1.0, "call"),
    (1.0, "call-now"),
    (1.5, "timer-1.5"),
    (1.5, "timer-late"),
    (1.5, "proc-late"),
    (1.5, "serve-queued"),
    (1.5, "zero-late"),
    (1.75, "serve-late"),
]


def test_timer_continuation_trace_pinned():
    """One tied-instant trace, pinned as a literal: one-waiter timer and
    serve continuations (uncontended and queued) dispatching beside a
    ``succeed()``, priority-1 calls and a process resumed by a yielded
    timer.  Each ``(now, label)`` entry is a dispatch; the order at one
    instant is the heap order every continuation must keep.  The queued
    serve's grant is not labelled: its heap position at 1.0 shows as
    ``serve-queued``'s place among the timers tied at 1.5 (after
    ``proc-late``, before ``zero-late``)."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def mark(label):
        def cont(_arg):
            log.append((env.now, label))
        return cont

    signal = env.event()
    subscribe(signal, mark("signal"))

    def at_zero(_arg):
        log.append((env.now, "timer-zero"))
        env.after(0.5, mark("zero-late"))

    def at_one(_arg):
        log.append((env.now, "timer-a"))
        signal.succeed()
        env._schedule_call(mark("call-now"), None)
        env.after(0.0, at_zero)
        env.after(0.5, mark("timer-late"))
        res.serve_then(0.25, mark("serve-late"))

    def proc(env):
        yield env.timeout(1.0)
        log.append((env.now, "proc"))
        yield env.timeout(0.5)
        log.append((env.now, "proc-late"))

    res.serve_then(1.0, mark("serve-free"))
    res.serve_then(0.5, mark("serve-queued"))
    env.after(1.0, at_one)
    env._schedule_call(mark("call"), None, 1.0)
    env.after(1.5, mark("timer-1.5"))
    env.process(proc(env))
    env.run()
    assert log == TIMER_TRACE


# -- the fan-in join's contract, one clause per test ---------------------------


def test_allof_fires_on_last_completion_in_given_order(env):
    """Components completing in reverse order: the join stays pending
    until the last one is dispatched, and its value follows the order
    the components were given, not the order they completed."""
    a, b, c = env.event(), env.event(), env.event()
    join = env.all_of([a, b, c])
    c.succeed("c")
    b.succeed("b")
    env.step()
    env.step()
    assert not join.triggered
    a.succeed("a")
    env.step()
    assert join.triggered
    env.run()
    assert join.value == ["a", "b", "c"]


def test_allof_succeeds_through_scheduler(env):
    """The last completion succeeds the join through the scheduler: a
    callback parked on the last component after the join was built
    still runs before the join's own waiters."""
    log = []
    ev = env.event()
    join = env.all_of([ev])
    subscribe(ev, lambda e: log.append("component"))
    subscribe(join, lambda e: log.append("join"))
    ev.succeed()
    env.step()
    assert join.triggered and log == ["component"]
    env.run()
    assert log == ["component", "join"]


def test_allof_fails_fast_for_flat_waiter(env):
    """A flat waiter parked on the join sees the first failure at the
    failure's instant, not when the slow component finishes."""
    log = []
    bad = env.event()
    join = env.all_of([env.timeout(10.0), bad])
    subscribe(join, lambda e: log.append((env.now, e.ok, str(e.value))))

    def failer(env):
        yield env.timeout(1.0)
        bad.fail(RuntimeError("participant died"))

    env.process(failer(env))
    env.run()
    assert log == [(1.0, False, "participant died")]
    assert env.now == 10.0


def test_allof_double_completion_guard(env):
    """The hazard class the 2PC chains must survive: two components
    failing at the same instant and a straggler completing after the
    join settled.  Neither re-triggers the join (which would raise
    SimulationError); its waiter runs once, on the first failure."""
    log = []
    a, b, c = env.event(), env.event(), env.event()
    join = env.all_of([a, b, c])
    subscribe(join, lambda e: log.append(str(e.value)))
    a.fail(RuntimeError("first death"))
    b.fail(RuntimeError("same-instant second death"))
    c.succeed("late straggler")
    env.run()
    assert join.triggered and not join.ok
    assert log == ["first death"]


def test_allof_shared_component_settles_each_join(env):
    """One component in two joins: each join counts it on its own, so
    one join can succeed while the other fails on a different
    component."""
    shared, good, bad = env.event(), env.event(), env.event()
    ok_join = env.all_of([shared, good])
    bad_join = env.all_of([bad, shared])
    shared.succeed("s")
    good.succeed("g")
    bad.fail(RuntimeError("dead"))
    env.run()
    assert ok_join.ok and ok_join.value == ["s", "g"]
    assert not bad_join.ok and str(bad_join.value) == "dead"


# -- chain fault paths: crash a participant mid-flight -------------------------
#
# Each migrated chain gets a regression test for the "callback fires
# after the chain already settled" race: a crashed participant fails the
# chain mid-protocol and the chain must abort exactly once, release
# every latch/lock it held, and leave no queued _ServeRequest behind.


def _drain(env, until=30.0):
    env.run(until=until)


def _assert_resource_clean(res):
    assert res.in_use == 0
    assert res.queue_length == 0         # no leaked _ServeRequest


def test_etcd_update_chain_aborts_cleanly_on_leader_crash():
    from repro.systems import EtcdSystem, SystemConfig
    from repro.txn import Op, OpType, Transaction, TxnStatus

    env = Environment()
    system = EtcdSystem(env, SystemConfig(num_nodes=3))
    system.load({"k": b"0"})
    system.servers[0].crash()            # the Raft leader
    txn = Transaction(ops=[Op(OpType.UPDATE, "k", b"1")])
    done = system.submit(txn)
    _drain(env)
    assert done.triggered and done.ok
    assert txn.status is TxnStatus.ABORTED
    assert not system._waiters            # no apply waiter leaked
    _assert_resource_clean(system.client_node.nic_out)
    _assert_resource_clean(system.servers[0].cpu)


def test_tikv_update_chain_aborts_cleanly_on_leader_crash():
    from repro.systems import SystemConfig, TikvSystem
    from repro.txn import Op, OpType, Transaction, TxnStatus

    env = Environment()
    system = TikvSystem(env, SystemConfig(num_nodes=3))
    records = {f"k{i}": b"0" for i in range(20)}
    system.load(records)
    key = "k0"
    system.cluster.nodes[system.cluster.leader_of(key)].crash()
    txn = Transaction(ops=[Op(OpType.UPDATE, key, b"1")])
    done = system.submit(txn)
    _drain(env)
    assert done.triggered and done.ok
    assert txn.status is TxnStatus.ABORTED
    assert not system.cluster._waiters
    _assert_resource_clean(system.client_node.nic_out)
    for thread in system.cluster.store_threads.values():
        _assert_resource_clean(thread)


def _tidb_cross_group_txn(env, crash_groups=(0,)):
    """A 2-key TiDB transaction spanning two region groups, with the
    leader(s) of ``crash_groups`` (indices into the key list) crashed."""
    from repro.systems import SystemConfig, TiDBSystem
    from repro.txn import Op, OpType, Transaction

    system = TiDBSystem(env, SystemConfig(num_nodes=3), instant_abort=True)
    records = {f"k{i}": b"0" for i in range(40)}
    system.load(records)
    a = "k0"
    b = next(k for k in records
             if system.cluster.leader_of(k) != system.cluster.leader_of(a))
    keys = [a, b]
    for i in crash_groups:
        system.cluster.nodes[system.cluster.leader_of(keys[i])].crash()
    txn = Transaction(ops=[Op(OpType.UPDATE, a, b"1"),
                           Op(OpType.UPDATE, b, b"2")])
    return system, txn


def _assert_tidb_clean_abort(system, txn, done):
    from repro.txn import AbortReason, TxnStatus

    assert done.triggered and done.ok
    assert txn.status is TxnStatus.ABORTED
    assert txn.abort_reason is AbortReason.COORDINATOR_ABORT
    assert system.pstore.locked_keys() == []       # percolator rolled back
    for latch in system._latches.values():         # scheduler latches freed
        _assert_resource_clean(latch)
    for thread in system.cluster.store_threads.values():
        _assert_resource_clean(thread)


def test_tidb_2pc_chain_aborts_cleanly_on_participant_crash():
    """One prewrite participant dies mid-2PC: the join fails fast, the
    chain rolls back and aborts once, the healthy participant's later
    completion is absorbed (the straggler leg of the race)."""
    env = Environment()
    system, txn = _tidb_cross_group_txn(env, crash_groups=(0,))
    done = system.submit(txn)
    _drain(env)
    _assert_tidb_clean_abort(system, txn, done)
    # Pinned modelling limit (see _Txn's fault contract): the surviving
    # participant's replicated prewrite value stays in the single-version
    # store after the abort; the crashed group's key does not.
    crashed_key = next(k for k in txn.write_set
                       if system.cluster.nodes[
                           system.cluster.leader_of(k)].crashed)
    assert system.cluster.state.get(crashed_key)[0] == b"0"


def test_tidb_2pc_chain_survives_two_same_instant_failures():
    """Both prewrite participants die: two failure callbacks race into
    the join at the same instant — exactly one abort, no
    SimulationError from a double trigger."""
    env = Environment()
    system, txn = _tidb_cross_group_txn(env, crash_groups=(0, 1))
    done = system.submit(txn)
    _drain(env)
    _assert_tidb_clean_abort(system, txn, done)


def test_twopc_chain_crash_between_phases_blocks_once():
    """Coordinator crash between votes and decision over the flat chain:
    one BLOCKED decision, prepared participants recorded, and the late
    inter-phase timer cannot re-complete the settled instance."""
    from repro.sharding import Decision, TwoPhaseCoordinator, Vote

    env = Environment()
    coordinator = TwoPhaseCoordinator(env, extra_phase_delay=0.5)

    class Prep:
        def __init__(self):
            self.prepared = False
            self.finalized = False

        def prepare(self, txn_id, payload):
            self.prepared = True
            return env.resolved(Vote.YES)

        def finalize(self, txn_id, decision):
            self.finalized = True
            return env.resolved(True)

    parts = [Prep(), Prep()]
    done = coordinator.run(1, parts)

    def crash(env):
        yield env.timeout(0.1)           # after votes, before decision
        coordinator.crash()

    env.process(crash(env))
    env.run()
    assert done.value is Decision.BLOCKED
    assert all(p.prepared for p in parts)
    assert not any(p.finalized for p in parts)     # phase 2 never ran
    assert coordinator.stats.blocked == 1
    assert coordinator.stats.prepared_blocked_participants == parts
