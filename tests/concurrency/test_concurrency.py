"""Tests for serial execution, OCC, 2PL (FIFO lock queues), and percolator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import (LockManager, LockMode, OccSimulator,
                               OccValidator, PercolatorStore,
                               PrewriteConflict, SerialExecutor,
                               TimestampOracle, endorsements_consistent)
from repro.txn import AbortReason, Op, OpType, Transaction, TxnStatus, VersionedStore


# -- serial executor -----------------------------------------------------------

def test_serial_execute_write_and_read_sets():
    store = VersionedStore()
    store.put("a", b"old", 1)
    ex = SerialExecutor(store)
    txn = Transaction.update("a", b"new")
    assert ex.execute(txn, version=2)
    assert store.get("a") == (b"new", 2)
    assert txn.read_set == {"a": 1}
    assert txn.status is TxnStatus.COMMITTED


def test_serial_logic_abort():
    store = VersionedStore()
    ex = SerialExecutor(store)
    txn = Transaction(ops=[Op(OpType.UPDATE, "k", b"")],
                      logic=lambda reads: None)
    assert not ex.execute(txn, version=1)
    assert txn.abort_reason is AbortReason.LOGIC
    assert "k" not in store


def test_serial_logic_derived_writes():
    store = VersionedStore()
    store.put("bal", (100).to_bytes(8, "big"), 1)

    def logic(reads):
        balance = int.from_bytes(reads["bal"], "big")
        return {"bal": (balance + 10).to_bytes(8, "big")}

    ex = SerialExecutor(store)
    txn = Transaction(ops=[Op(OpType.UPDATE, "bal", b"")], logic=logic)
    assert ex.execute(txn, version=2)
    assert int.from_bytes(store.get("bal")[0], "big") == 110


def test_serial_replay_is_deterministic():
    def run():
        store = VersionedStore()
        ex = SerialExecutor(store)
        txns = [Transaction.write(f"k{i % 3}", f"v{i}".encode())
                for i in range(10)]
        ex.replay(txns, start_version=0)
        return store.snapshot()

    assert run() == run()


# -- OCC --------------------------------------------------------------------------

def test_occ_non_conflicting_both_commit():
    store = VersionedStore()
    store.put("a", b"0", 1)
    store.put("b", b"0", 1)
    sim, val = OccSimulator(store), OccValidator(store)
    t1, t2 = Transaction.update("a", b"1"), Transaction.update("b", b"2")
    sim.simulate(t1)
    sim.simulate(t2)
    assert val.validate_and_commit(t1, 2)
    assert val.validate_and_commit(t2, 2)


def test_occ_stale_read_aborts():
    store = VersionedStore()
    store.put("a", b"0", 1)
    sim, val = OccSimulator(store), OccValidator(store)
    t1, t2 = Transaction.update("a", b"1"), Transaction.update("a", b"2")
    sim.simulate(t1)
    sim.simulate(t2)  # same snapshot
    assert val.validate_and_commit(t1, 2)
    assert not val.validate_and_commit(t2, 2)
    assert t2.abort_reason is AbortReason.READ_WRITE_CONFLICT


def test_occ_validate_block_intra_block_conflicts():
    store = VersionedStore()
    store.put("hot", b"0", 1)
    sim, val = OccSimulator(store), OccValidator(store)
    txns = [Transaction.update("hot", f"v{i}".encode()) for i in range(5)]
    for t in txns:
        sim.simulate(t)
    # Fabric validates a block serially: later transactions see the
    # versions earlier ones in the same block committed.
    committed = [t for t in txns if val.validate_and_commit(t, 2)]
    assert committed == txns[:1]  # first wins, rest abort on stale reads


def test_occ_simulation_does_not_mutate_state():
    store = VersionedStore()
    store.put("a", b"0", 1)
    OccSimulator(store).simulate(Transaction.update("a", b"X"))
    assert store.get("a") == (b"0", 1)


def test_occ_blind_write_never_conflicts():
    store = VersionedStore()
    store.put("a", b"0", 1)
    sim, val = OccSimulator(store), OccValidator(store)
    t1 = Transaction.write("a", b"1")  # blind write: empty read set
    t2 = Transaction.write("a", b"2")
    sim.simulate(t1)
    sim.simulate(t2)
    assert val.validate_and_commit(t1, 2)
    assert val.validate_and_commit(t2, 3)


def test_endorsement_consistency():
    assert endorsements_consistent([])
    assert endorsements_consistent([{"a": 1}])
    assert endorsements_consistent([{"a": 1}, {"a": 1}])
    assert not endorsements_consistent([{"a": 1}, {"a": 2}])
    assert not endorsements_consistent([{"a": 1}, {"a": 1, "b": 1}])


def test_occ_serializability_equivalent_to_serial():
    """Committed OCC transactions produce a state reachable by some serial
    execution (here: commit order)."""
    store = VersionedStore()
    for key in "abc":
        store.put(key, b"0", 1)
    sim, val = OccSimulator(store), OccValidator(store)
    txns = [Transaction.update(k, f"{i}".encode())
            for i, k in enumerate("abcabc")]
    for t in txns:
        sim.simulate(t)
    committed = [t for t in txns if val.validate_and_commit(t, 2)]
    # replay committed serially on a fresh store: states must match
    replay = VersionedStore()
    for key in "abc":
        replay.put(key, b"0", 1)
    SerialExecutor(replay).replay(
        [Transaction(ops=t.ops) for t in committed], start_version=1)
    for key in "abc":
        assert store.get(key)[0] == replay.get(key)[0]


# -- 2PL (FIFO S/X queues) ---------------------------------------------------------

def test_conflicting_requests_granted_in_arrival_order(env):
    """Waiters are granted in arrival order, whatever their txn ids."""
    lm = LockManager(env)
    assert lm.acquire(5, "k", LockMode.EXCLUSIVE).triggered
    order = (9, 1, 7)
    waits = {tid: lm.acquire(tid, "k", LockMode.EXCLUSIVE) for tid in order}
    assert not any(ev.triggered for ev in waits.values())
    holder = 5
    for i, tid in enumerate(order):
        lm.release(holder, "k")
        env.run()
        assert [t for t in order if waits[t].triggered] == list(order[:i + 1])
        assert waits[tid].ok
        holder = tid
    lm.release(holder, "k")
    assert lm._locks == {}


def test_shared_locks_are_compatible(env):
    lm = LockManager(env)
    s1 = lm.acquire(1, "k", LockMode.SHARED)
    s2 = lm.acquire(2, "k", LockMode.SHARED)
    assert s1.triggered and s2.triggered
    x = lm.acquire(0, "k", LockMode.EXCLUSIVE)
    assert not x.triggered
    lm.release(1, "k")
    lm.release(2, "k")
    env.run()
    assert x.triggered and x.ok


def test_shared_request_does_not_barge_past_queued_exclusive(env):
    """An S request behind a queued X waits, though the holder is S;
    the S requests queued together are then granted together."""
    lm = LockManager(env)
    assert lm.acquire(1, "k", LockMode.SHARED).triggered
    x = lm.acquire(2, "k", LockMode.EXCLUSIVE)
    s3 = lm.acquire(3, "k", LockMode.SHARED)
    s4 = lm.acquire(4, "k", LockMode.SHARED)
    assert not (x.triggered or s3.triggered or s4.triggered)
    lm.release(1, "k")
    env.run()
    assert x.triggered and not (s3.triggered or s4.triggered)
    lm.release(2, "k")
    env.run()
    assert s3.triggered and s4.triggered
    lm.release(3, "k")
    lm.release(4, "k")
    assert lm._locks == {}


def test_reentrant_and_upgrade(env):
    lm = LockManager(env)
    assert lm.acquire(1, "k", LockMode.SHARED).triggered
    assert lm.acquire(1, "k", LockMode.SHARED).triggered   # re-entrant
    up = lm.acquire(1, "k", LockMode.EXCLUSIVE)            # sole sharer
    assert up.triggered and up.ok
    assert lm.acquire(1, "k", LockMode.SHARED).triggered   # X covers S
    other = lm.acquire(2, "k", LockMode.SHARED)
    assert not other.triggered                             # upgrade excludes
    lm.release(1, "k")
    env.run()
    assert other.triggered and other.ok


def test_upgrade_waits_for_other_sharers(env):
    lm = LockManager(env)
    lm.acquire(1, "k", LockMode.SHARED)
    lm.acquire(2, "k", LockMode.SHARED)
    up = lm.acquire(1, "k", LockMode.EXCLUSIVE)
    assert not up.triggered
    lm.release(2, "k")
    env.run()
    assert up.triggered and up.ok
    late = lm.acquire(3, "k", LockMode.SHARED)
    assert not late.triggered                              # 1 now holds X
    lm.release(1, "k")
    env.run()
    assert late.triggered
    lm.release(3, "k")
    assert lm._locks == {}


def test_fifo_grant_order_for_waiting_elders(env):
    """An older waiter gains no priority: the first waiter wins."""
    lm = LockManager(env)
    lm.acquire(10, "k", LockMode.EXCLUSIVE)
    w1 = lm.acquire(2, "k", LockMode.EXCLUSIVE)   # older than holder
    w2 = lm.acquire(1, "k", LockMode.EXCLUSIVE)   # oldest of all
    assert not w1.triggered and not w2.triggered
    lm.release(10, "k")
    env.run()
    assert w1.triggered and w1.ok                 # FIFO: first waiter wins
    assert not w2.triggered                       # still queued behind


def test_release_by_non_holder_grants_nothing(env):
    """Releasing an unknown key, or a key one only waits for, changes
    no lock state."""
    lm = LockManager(env)
    lm.release(1, "nowhere")
    assert lm._locks == {}
    lm.acquire(1, "k", LockMode.EXCLUSIVE)
    w = lm.acquire(2, "k", LockMode.EXCLUSIVE)
    lm.release(2, "k")                            # 2 holds nothing yet
    env.run()
    assert not w.triggered
    lm.release(1, "k")
    env.run()
    assert w.triggered and w.ok
    lm.release(2, "k")
    assert lm._locks == {}
    assert lm.grants == 2 and lm.wait_events == 1


def test_key_ordered_crossing_transactions_finish(env):
    """Two transactions writing {A, B} in opposite program order both
    commit when each takes its locks in key order, and leave no lock
    state behind."""
    lm = LockManager(env)
    finished = []

    def txn(tid, keys, start):
        yield env.timeout(start)
        for key in sorted(keys):
            yield lm.acquire(tid, key, LockMode.EXCLUSIVE)
            yield env.timeout(1.0)            # work between acquisitions
        for key in keys:
            lm.release(tid, key)
        finished.append((tid, env.now))

    env.process(txn(1, ["A", "B"], 0.0))
    env.process(txn(2, ["B", "A"], 0.5))
    env.run()
    assert finished == [(1, 2.0), (2, 4.0)]
    assert lm._locks == {}
    assert lm.wait_events == 1 and lm.grants == 4


# -- percolator ------------------------------------------------------------------------

def test_percolator_commit_roundtrip():
    ps, oracle = PercolatorStore(), TimestampOracle()
    start = oracle.next()
    ps.prewrite(1, ["a", "b"], "a", start)
    commit = oracle.next()
    ps.commit(1, {"a": b"1", "b": b"2"}, commit)
    assert ps.store.get("a") == (b"1", commit)
    assert not ps.is_locked("a") and not ps.is_locked("b")


def test_percolator_requires_primary_in_keys():
    ps = PercolatorStore()
    with pytest.raises(ValueError):
        ps.prewrite(1, ["a"], "zz", 1)


def test_percolator_lock_conflict_rolls_back_partial():
    ps, oracle = PercolatorStore(), TimestampOracle()
    ps.prewrite(1, ["b"], "b", oracle.next())
    with pytest.raises(PrewriteConflict):
        ps.prewrite(2, ["a", "b"], "a", oracle.next())
    # txn 2's partial lock on "a" must have been rolled back
    assert not ps.is_locked("a")
    assert ps.lock_owner("b") == 1


def test_percolator_write_write_conflict():
    ps, oracle = PercolatorStore(), TimestampOracle()
    start_early = oracle.next()
    ps.prewrite(1, ["a"], "a", oracle.next())
    ps.commit(1, {"a": b"x"}, oracle.next())
    with pytest.raises(PrewriteConflict):
        ps.prewrite(2, ["a"], "a", start_early)  # stale snapshot


def test_percolator_commit_without_lock_is_error():
    ps = PercolatorStore()
    with pytest.raises(RuntimeError):
        ps.commit(1, {"a": b"x"}, 5)


def test_percolator_rollback_clears_only_own_locks():
    ps, oracle = PercolatorStore(), TimestampOracle()
    ps.prewrite(1, ["a"], "a", oracle.next())
    ps.prewrite(2, ["b"], "b", oracle.next())
    ps.rollback(1, ["a", "b"])
    assert not ps.is_locked("a")
    assert ps.lock_owner("b") == 2


def test_percolator_superseded_read_version_conflicts():
    ps = PercolatorStore()
    ps.store.put("a", b"x", 3)
    ps.prewrite(1, ["a"], "a", 4)
    ps.commit(1, {"a": b"y"}, 5)
    # txn 2 read "a" at version 3; its start_ts passes the newer-version
    # check, but the read it based its write on is gone.
    with pytest.raises(PrewriteConflict, match="read version superseded"):
        ps.prewrite(2, ["a"], "a", 10, read_versions={"a": 3})
    assert not ps.is_locked("a")
    assert ps.conflicts == 1
    ps.prewrite(3, ["a"], "a", 10, read_versions={"a": 5})
    assert ps.lock_owner("a") == 3


def test_percolator_read_committed_only_conflicts_on_live_locks():
    ps = PercolatorStore()
    ps.prewrite(1, ["a"], "a", 1)
    ps.commit(1, {"a": b"x"}, 5)
    # A newer committed version no longer conflicts...
    ps.prewrite(2, ["a"], "a", 2, first_committer_wins=False)
    assert ps.lock_owner("a") == 2
    # ...but another transaction's live lock still does.
    with pytest.raises(PrewriteConflict, match="locked by txn 2"):
        ps.prewrite(3, ["a"], "a", 9, first_committer_wins=False)


def test_percolator_commit_clock_ignores_foreign_store_versions():
    ps = PercolatorStore()
    # A replication layer sharing the store stamps its own apply counter.
    ps.store.put("a", b"r", 1000)
    with pytest.raises(PrewriteConflict, match="newer committed version"):
        ps.prewrite(1, ["a"], "a", 5)
    ps.prewrite(1, ["a"], "a", 5, commit_clock=True)
    ps.commit(1, {"a": b"x"}, 7)
    # The commit-timestamp table still catches a real write-write conflict.
    with pytest.raises(PrewriteConflict, match="newer committed version"):
        ps.prewrite(2, ["a"], "a", 6, commit_clock=True)
    ps.prewrite(3, ["a"], "a", 8, commit_clock=True)
    assert ps.lock_owner("a") == 3


def test_oracle_monotonic():
    oracle = TimestampOracle()
    stamps = [oracle.next() for _ in range(100)]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 100


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.sampled_from("abc")),
                min_size=1, max_size=30))
def test_percolator_atomicity_property(schedule):
    """Interleaved prewrite/commit of single-key txns: a key is never left
    locked after its txn commits or rolls back, and committed versions
    are monotone."""
    ps, oracle = PercolatorStore(), TimestampOracle()
    last_commit_ts: dict[str, int] = {}
    for txn_id, key in schedule:
        start = oracle.next()
        try:
            ps.prewrite((txn_id, start), [key], key, start)
        except PrewriteConflict:
            continue
        commit = oracle.next()
        ps.commit((txn_id, start), {key: f"{txn_id}".encode()}, commit)
        assert not ps.is_locked(key)
        assert commit > last_commit_ts.get(key, 0)
        last_commit_ts[key] = commit
