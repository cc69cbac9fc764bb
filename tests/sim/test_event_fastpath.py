"""Tests for the flat-event fast paths: serve_event, the process
trampoline, inline resolution, interrupt/cancel delivery through
short-circuited chains, the Countdown join primitive, and the fault
contract of the DB-side chain objects (crash a participant mid-2PC /
mid-update and the chain must abort cleanly: no leaked _ServeRequest,
resource counts restored, done fired exactly once)."""

import pytest

from repro.sim import Countdown, Environment, Interrupt, Node
from repro.sim.kernel import _MAX_INLINE_DEPTH, Event
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


# -- interrupt/cancel through short-circuited chains ---------------------------


def test_interrupt_while_parked_on_serve_event(env):
    """Interrupting a waiter parked on a flat serve delivers the
    Interrupt at interrupt time; the slot itself is held to the
    scheduled service end (the service is not cancelled)."""
    node = Node(env, "n", cores=1)
    log = []

    def worker(env):
        try:
            yield node.compute(5.0)
            log.append("done")
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))

    proc = env.process(worker(env))

    def interrupter(env):
        yield env.timeout(1.0)
        proc.interrupt("stop")

    env.process(interrupter(env))
    env.run(until=3.0)
    assert log == [("interrupted", 1.0, "stop")]
    assert node.cpu.in_use == 1          # service still holds the core
    env.run()
    assert node.cpu.in_use == 0          # released at the scheduled end


def test_interrupt_after_trampolined_chain(env):
    """An interrupt lands correctly in a process that just trampolined
    through a chain of resolved events and parked on a live one."""
    log = []

    def worker(env):
        for i in range(100):
            yield env.resolved(i)
        try:
            yield env.event()            # park forever
        except Interrupt:
            log.append(env.now)

    proc = env.process(worker(env))

    def interrupter(env):
        yield env.timeout(2.0)
        proc.interrupt()

    env.process(interrupter(env))
    env.run()
    assert log == [2.0]


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


# -- Countdown: the 2PC fan-out join -------------------------------------------


def test_countdown_fires_on_nth_hit(env):
    cd = Countdown(env, 3)
    cd.hit("a")
    cd.hit("b")
    assert not cd.triggered
    cd.hit("c")
    assert cd.triggered
    env.run()
    assert cd.value == ["a", "b", "c"]   # completion order


def test_countdown_zero_branches_fires_immediately(env):
    cd = Countdown(env, 0)
    assert cd.triggered                  # like AllOf([]): succeeds at once
    env.run()
    assert cd.value == []


def test_countdown_watch_matches_allof_timing(env):
    """Countdown over N timers must fire at the same simulated time as
    AllOf over the identical timers (the dispatch-equivalence contract
    that lets 2PC chains swap one for the other)."""
    times = {}

    def with_allof(env):
        yield env.all_of([env.timeout(d) for d in (0.3, 0.1, 0.2)])
        times["allof"] = env.now

    env.process(with_allof(env))
    env.run()
    env2 = Environment()
    cd = Countdown(env2, 3)
    for d in (0.3, 0.1, 0.2):
        cd.watch(env2.timeout(d, value=d))
    env2.run()
    assert times["allof"] == env2.now == 0.3
    assert cd.value == [0.1, 0.2, 0.3]   # completion order


def test_countdown_watch_already_processed_event(env):
    cd = Countdown(env, 1)
    cd.watch(env.resolved("early"))
    assert cd.triggered
    env.run()
    assert cd.value == ["early"]


def test_countdown_fail_fast_on_branch_failure(env):
    cd = Countdown(env, 2)
    ok, bad = env.event(), env.event()
    cd.watch(ok)
    cd.watch(bad)
    bad.fail(RuntimeError("participant died"))
    env.run()
    assert cd.triggered and not cd.ok
    assert isinstance(cd.value, RuntimeError)


def test_countdown_double_completion_guard(env):
    """The hazard class the chains must survive: two branches failing at
    the same instant, and a straggler completing after the join already
    settled — neither may re-trigger (SimulationError) the countdown."""
    cd = Countdown(env, 3)
    a, b, c = env.event(), env.event(), env.event()
    for ev in (a, b, c):
        cd.watch(ev)
    a.fail(RuntimeError("first death"))
    b.fail(RuntimeError("same-instant second death"))
    c.succeed("late straggler")
    env.run()                            # would raise on a double trigger
    assert cd.triggered and not cd.ok
    assert str(cd.value) == "first death"
    # direct late hit/miss after settling: absorbed, not raised
    cd.hit("post")
    cd.miss(RuntimeError("post"))


def test_countdown_late_hit_after_success_ignored(env):
    cd = Countdown(env, 1)
    cd.hit("winner")
    cd.hit("straggler")
    env.run()
    assert cd.value == ["winner"]


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
    """One prewrite participant dies mid-2PC: countdown fails fast, the
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
    the countdown at the same instant — exactly one abort, no
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
