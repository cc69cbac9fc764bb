"""Equivalence gate for the conservative-lookahead parallel kernel.

``AhlSystem(shard_lookahead=True)`` charges the hub<->shard network hops
in a single heap; ``AhlSystem(parallel=True)`` runs the same model with
one worker process per shard behind a
:class:`repro.sim.parallel.ShardCoupler`.  The two must produce
byte-identical :class:`~repro.workloads.driver.RunResult`\\ s — same
``repr`` of every float — on a Fig. 14 topology across seeds, including
the hard cases: cross-shard BFT-2PC legs and reconfiguration pauses
that synchronize the shards into post-pause lockstep (where same-instant
completion ordering is decided by causal lineage, not timestamps).
"""

import types

import pytest

from repro.bench.harness import Scale, run_point
from repro.sim import parallel as par
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.kernel import Environment

# Small derived scale: the parallel run pays one barrier round-trip per
# 150 microsecond lookahead window, so keep the simulated span short.
DIFF_SCALE = Scale("diff", record_count=2_000, warmup_txns=10,
                   measure_txns=80, max_sim_time=60.0)

# Reconfiguration every 0.2 s (pause 0.05 s) so epochs land inside the
# measured window — the paper-default 3 s period would never fire here.
FAST_RECONFIG = DEFAULT_COSTS.derive(ahl_reconfig_period=0.2,
                                     ahl_reconfig_pause=0.05)


def _fields(result):
    return (repr(result.tps), result.measured, repr(result.mean_latency),
            result.stats.aborted, result.timeouts, repr(result.elapsed),
            repr(result.extras.get("completed_tps")))


def _run_pair(seed, ops_per_txn, costs=None):
    kwargs = dict(scale=DIFF_SCALE, num_nodes=6, clients=24, mode="rmw",
                  seed=seed, ops_per_txn=ops_per_txn)
    if costs is not None:
        kwargs["costs"] = costs
    ref = run_point("ahl", system_kwargs={"shard_lookahead": True},
                    **kwargs)
    par = run_point("ahl", system_kwargs={"parallel": True}, **kwargs)
    return ref, par


@pytest.mark.parametrize("seed", [11, 23])
def test_parallel_matches_single_heap(seed):
    ref, par = _run_pair(seed, ops_per_txn=1)
    assert ref.measured == DIFF_SCALE.measure_txns
    assert _fields(ref) == _fields(par)


def test_parallel_matches_with_cross_shard_and_pauses():
    # ops_per_txn=2 forces cross-shard BFT-2PC; the fast reconfig costs
    # put several pause epochs inside the run.  Both the single-heap and
    # the parallel build must agree on everything, including how many
    # transactions went cross-shard.
    ref, par = _run_pair(seed=23, ops_per_txn=2, costs=FAST_RECONFIG)
    assert ref.extras["system"].cross_shard_txns > 0
    assert ref.extras["system"].cross_shard_txns \
        == par.extras["system"].cross_shard_txns
    assert _fields(ref) == _fields(par)


# Fig-14 stretch scale: enough transactions that 256 shards see real
# concurrency, small enough that the whole matrix runs in seconds.
FIG14_SCALE = Scale("fig14diff", record_count=2_000, warmup_txns=50,
                    measure_txns=150, max_sim_time=60.0)


@pytest.mark.parametrize("shards", [4, 16, 64, 256])
@pytest.mark.parametrize("seed", [11, 23])
def test_parallel_matches_at_scale(shards, seed):
    # The hundreds-of-shards gate: byte-identical RunResults at every
    # Fig-14 shard count, cross-shard 2PC on (ops_per_txn=2).  High
    # shard counts are where same-instant completion collisions actually
    # happen — the 2-shard tests never exercised the lineage ordering.
    kwargs = dict(scale=FIG14_SCALE, num_nodes=3 * shards, seed=seed,
                  mode="rmw", ops_per_txn=2, theta=0.0)
    ref = run_point("ahl", system_kwargs={"shard_lookahead": True}, **kwargs)
    run = run_point("ahl", system_kwargs={"parallel": True}, **kwargs)
    assert _fields(ref) == _fields(run)


def test_worker_pool_persists_across_runs():
    par.shutdown_pool()
    kwargs = dict(scale=DIFF_SCALE, num_nodes=6, clients=24, mode="rmw",
                  seed=11, ops_per_txn=1,
                  system_kwargs={"parallel": True})
    first = run_point("ahl", **kwargs)
    pids = [proc.pid for proc in par._POOL.procs]
    second = run_point("ahl", **kwargs)
    # Same worker processes served both runs (the per-run reset frame
    # rebuilt their LPs in place), and the rerun is byte-identical.
    assert [proc.pid for proc in par._POOL.procs] == pids
    assert _fields(first) == _fields(second)
    par.shutdown_pool()


def test_dead_worker_raises_instead_of_hanging():
    par.shutdown_pool()
    env = Environment()
    coupler = par.ShardCoupler(env, num_shards=2, window=0.00015,
                               period=30.0, pause=9.0)
    coupler.exec_event(0, 0.001)
    coupler.end_window(0.0)          # attach + first exchange succeeds
    for proc in par._POOL.procs:
        proc.terminate()
        proc.join(timeout=5)
    coupler.exec_event(1, 0.001)
    with pytest.raises(RuntimeError,
                       match="died|closed its pipe|is gone"):
        coupler.end_window(0.0003)   # detected within a poll interval
    coupler.shutdown()
    par.shutdown_pool()


def test_worker_crash_ships_traceback():
    par.shutdown_pool()
    env = Environment()
    coupler = par.ShardCoupler(env, num_shards=2, window=0.00015,
                               period=30.0, pause=9.0)
    # Shard 7 exists in no worker's LP table: the worker raises KeyError,
    # which must arrive hub-side as a RuntimeError carrying the worker's
    # traceback — not as a barrier deadlock.
    coupler.exec_event(7, 0.001)
    with pytest.raises(RuntimeError, match="KeyError"):
        coupler.end_window(0.0)
    coupler.shutdown()
    par.shutdown_pool()


def test_nested_worker_pool_refused(monkeypatch):
    # A daemonic pool worker (a --jobs sweep process) must not try to
    # spawn shard workers: clear refusal, not a spawn bomb.
    monkeypatch.setattr(par.mp, "current_process",
                        lambda: types.SimpleNamespace(daemon=True))
    with pytest.raises(RuntimeError, match="nested"):
        par._WorkerPool(1)


def test_lookahead_mode_defaults_off():
    # The seeded fingerprints pin the default (hopless) model: a plain
    # build must not grow hops or a coupler.
    ref = run_point("ahl", scale=DIFF_SCALE, num_nodes=6, clients=24,
                    mode="rmw", seed=11)
    system = ref.extras["system"]
    assert system.shard_lookahead is False
    assert system.coupler is None
