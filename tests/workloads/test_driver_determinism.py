"""Driver determinism + warm-up boundary semantics."""

import pytest

from repro.bench.harness import SMOKE, run_point
from repro.sim.kernel import Environment
from repro.txn.transaction import Transaction
from repro.workloads import DriverConfig, run_closed_loop


class TickSystem:
    """Commits every submission after a fixed delay (no randomness)."""

    def __init__(self, env, delay=0.01):
        self.env = env
        self.delay = delay

    def submit(self, txn):
        ev = self.env.event()

        def go():
            txn.submitted_at = self.env.now
            yield self.env.timeout(self.delay)
            txn.mark_committed()
            ev.succeed(txn)

        self.env.process(go())
        return ev

    submit_query = submit


def _counter_workload():
    state = {"n": 0}

    def next_txn(client):
        state["n"] += 1
        return Transaction.write(f"key{state['n']}", b"v")

    return next_txn


# -- warm-up boundary -------------------------------------------------------


def test_boundary_txn_is_measured():
    """Completion number ``warmup_txns`` is the first measured txn."""
    env = Environment()
    system = TickSystem(env, delay=0.01)
    result = run_closed_loop(env, system, _counter_workload(),
                             DriverConfig(clients=1, warmup_txns=5,
                                          measure_txns=10))
    assert result.measured == 10
    # One client, 10 ms per txn: completions at 0.01*k.  Warm-up covers
    # completions 1..4, the clock starts at #4, and #5..#14 are measured.
    assert result.elapsed == pytest.approx(0.10, rel=1e-6)
    assert result.tps == pytest.approx(100.0, rel=1e-6)


def test_no_warmup_measures_from_run_start():
    env = Environment()
    system = TickSystem(env, delay=0.01)
    result = run_closed_loop(env, system, _counter_workload(),
                             DriverConfig(clients=1, warmup_txns=0,
                                          measure_txns=10))
    assert result.measured == 10
    # Window spans run start -> 10th completion: exactly 0.1s.
    assert result.elapsed == pytest.approx(0.10, rel=1e-6)
    assert result.tps == pytest.approx(100.0, rel=1e-6)


def test_warmup_one_equivalent_to_zero_warmup_window():
    env = Environment()
    system = TickSystem(env, delay=0.01)
    result = run_closed_loop(env, system, _counter_workload(),
                             DriverConfig(clients=1, warmup_txns=1,
                                          measure_txns=5))
    assert result.measured == 5
    assert result.elapsed == pytest.approx(0.05, rel=1e-6)


def test_short_smoke_run_not_skewed():
    """The boundary txn is no longer dropped: tps is exact for a
    deterministic system even at tiny measurement sizes."""
    for measure in (1, 2, 3, 10):
        env = Environment()
        system = TickSystem(env, delay=0.02)
        result = run_closed_loop(env, system, _counter_workload(),
                                 DriverConfig(clients=1, warmup_txns=3,
                                              measure_txns=measure))
        assert result.measured == measure
        assert result.tps == pytest.approx(50.0, rel=1e-6)


# -- determinism ------------------------------------------------------------


def _fingerprint(result):
    return (result.tps, result.elapsed, result.measured,
            result.stats.latency.mean, result.stats.latency.count,
            result.abort_rate, result.timeouts,
            tuple(sorted(result.phase_means().items())))


@pytest.mark.parametrize("system", ["quorum", "etcd", "fabric"])
def test_same_seed_identical_runresult(system):
    """Same seed => byte-identical RunResult through all the fast paths
    (pooled timers, immediate resume, serve fast path, alias sampler)."""
    a = run_point(system, scale=SMOKE, seed=11)
    b = run_point(system, scale=SMOKE, seed=11)
    assert _fingerprint(a) == _fingerprint(b)


def test_different_seeds_differ():
    a = run_point("quorum", scale=SMOKE, seed=1)
    b = run_point("quorum", scale=SMOKE, seed=2)
    assert _fingerprint(a) != _fingerprint(b)


def test_real_state_root_matches_replayed_final_state():
    """The per-block batched commits must land on the same root as a
    fresh per-write trie over the final committed state."""
    from repro.adt.mpt import MerklePatriciaTrie

    real = run_point("quorum", scale=SMOKE, seed=4,
                     extras={"index": "lsm+mpt"})
    system = real.extras["system"]
    trie = system.engine.tree
    assert system.ledger.blocks[-1].header.state_root == trie.root
    # The run may stop mid-block: fold any still-staged writes first so
    # the trie reflects everything the executor applied.
    trie.commit()
    replay = MerklePatriciaTrie()
    for key in system.state.keys():
        value, _version = system.state.get(key)
        replay.put(key.encode(), value)
    assert replay.root == trie.root
