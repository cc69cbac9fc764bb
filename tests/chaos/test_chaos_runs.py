"""Invariant-checked chaos runs: one test per declarative step type.

Each test drives a full system through a fault schedule with the standard
invariant suite armed (no ledger fork, prefix consistency, SmallBank
conservation, liveness after heal) and asserts both that the fault
demonstrably fired (injection log / protocol counters) and that the
invariants held.
"""

import pytest

from repro.chaos import (AsymPartition, Censor, ClockSkew, CrashRestart,
                         Equivocate, GrayNode, LeaderChurn, Partition,
                         Scenario, SilentLeader,
                         run_chaos_point)
from repro.chaos.injector import discover_groups
from repro.core.builder import DEDICATED_MODELS, build_system
from repro.core.taxonomy import TABLE2
from repro.sim.kernel import Environment
from repro.systems.base import SystemConfig

ETCD_MINORITY = ("etcd1",)
ETCD_MAJORITY = ("etcd0", "etcd2", "etcd3", "etcd4")


def _assert_clean(result):
    assert result.ok, f"invariant violations: {result.violations}"
    assert result.checks > 0            # the continuous checker really ran
    assert result.run.tps > 0


class TestPartitions:
    def test_symmetric_partition_heals(self):
        scen = Scenario(
            name="etcd-minority-partition",
            steps=(Partition(at=1.0, group_a=ETCD_MINORITY,
                             group_b=ETCD_MAJORITY, until=3.0),),
            settle=3.0)
        res = run_chaos_point("etcd", scen, seed=11, extras={"wal": True})
        _assert_clean(res)
        assert any("partition" in line for line in res.injection_log)
        assert any("heal" in line for line in res.injection_log)
        # the network is actually clean again after the heal
        assert not res.extras["system"].network._partitions

    def test_asymmetric_partition(self):
        scen = Scenario(
            name="etcd-asym-partition",
            steps=(AsymPartition(at=1.0, group_a=("etcd0",),
                                 group_b=ETCD_MAJORITY[1:], until=3.0),),
            settle=4.0)
        res = run_chaos_point("etcd", scen, seed=11, extras={"wal": True})
        _assert_clean(res)
        assert any("->" in line and "<->" not in line
                   for line in res.injection_log)


class TestGrayNode:
    def test_slow_lossy_node_does_not_break_safety(self):
        scen = Scenario(
            name="etcd-gray-follower",
            steps=(GrayNode(at=1.0, node="etcd2", extra_delay=0.002,
                            drop_rate=0.1, until=3.0),),
            settle=3.0)
        res = run_chaos_point("etcd", scen, seed=11, extras={"wal": True})
        _assert_clean(res)
        net = res.extras["system"].network
        assert not net._link_delay          # healed without residue
        assert any("gray etcd2" in line for line in res.injection_log)


class TestCrashRestart:
    def test_engine_host_recovers_by_wal_replay(self):
        scen = Scenario(
            name="etcd-crash-engine-host",
            steps=(CrashRestart(at=2.0, node="etcd0", restart_at=3.0),),
            settle=4.0)
        res = run_chaos_point("etcd", scen, seed=11, extras={"wal": True})
        _assert_clean(res)
        engine = res.extras["system"].engine
        assert engine.recoveries == 1
        replayed = [l for l in res.injection_log if "replayed" in l]
        assert len(replayed) == 1
        # genesis survives recovery: 200 accounts x 2 records at minimum
        assert "replayed" in replayed[0]
        assert engine.wal_checkpoint_bytes is None   # truncation disabled

    def test_crash_without_wal_rejected_at_arm_time(self):
        scen = Scenario(
            name="etcd-crash-no-wal",
            steps=(CrashRestart(at=2.0, node="etcd0", restart_at=3.0),))
        with pytest.raises(ValueError, match="requires a WAL"):
            run_chaos_point("etcd", scen, seed=11)


class TestLeaderChurn:
    def test_rolling_leader_kills(self):
        scen = Scenario(
            name="etcd-leader-churn",
            steps=(LeaderChurn(at=1.0, until=7.0, period=2.0,
                               downtime=0.5),),
            settle=5.0)
        res = run_chaos_point("etcd", scen, seed=11, extras={"wal": True})
        _assert_clean(res)
        crashes = [l for l in res.injection_log if l.split()[1] == "crash"]
        assert len(crashes) >= 1            # at least the bootstrap leader
        assert any("churn window closed" in l for l in res.injection_log)


class TestClockSkew:
    def test_skew_stretches_spanner_commit_wait(self):
        def point(skew):
            scen = Scenario(
                name=f"spanner-skew-{skew:g}",
                steps=(ClockSkew(at=0.5, node="spanner-leader0",
                                 skew=skew, until=5.5),),
                settle=1.0)
            return run_chaos_point("spanner", scen, seed=11, num_nodes=3)

        baseline = point(0.0)
        skewed = point(0.05)
        _assert_clean(baseline)
        _assert_clean(skewed)
        # every commit through the skewed shard leader waits out the
        # inflated uncertainty: with one shard, mean latency shifts by
        # nearly the full skew
        assert (skewed.run.mean_latency
                > baseline.run.mean_latency + 0.02)


class TestAhlCommittee:
    """AHL's reference committee (the BFT 2PC coordinator) under faults."""

    REF_MAJORITY = ("ahl-ref0", "ahl-ref1", "ahl-ref2")

    def _run(self, scen):
        return run_chaos_point("ahl", scen, seed=11, num_nodes=6,
                               workload="ycsb")

    def test_gray_replica_run_stays_clean_and_replays(self):
        scen = Scenario(
            name="ahl-gray-ref",
            steps=(GrayNode(at=0.5, node="ahl-ref1", extra_delay=0.002,
                            drop_rate=0.1, until=1.5),),
            settle=1.0)
        res = self._run(scen)
        _assert_clean(res)
        assert any("gray ahl-ref1" in l for l in res.injection_log)
        assert any("ungray ahl-ref1" in l for l in res.injection_log)
        assert self._run(scen).digest() == res.digest()

    def test_minority_partition_keeps_committing(self):
        scen = Scenario(
            name="ahl-ref-minority-partition",
            steps=(Partition(at=0.5, group_a=("ahl-ref3",),
                             group_b=self.REF_MAJORITY, until=1.5),),
            settle=1.0)
        res = self._run(scen)
        _assert_clean(res)
        assert any("heal" in l for l in res.injection_log)
        assert not res.extras["system"].network._partitions

    def test_silent_reference_leader_arms_and_stays_clean(self):
        # A byzantine step needs a BFT group: discovery must find the
        # committee.  One-op YCSB never crosses shards, so the silenced
        # primary has nothing to swallow.
        scen = Scenario(name="ahl-silent-ref-leader",
                        steps=(SilentLeader(at=0.5, until=2.5),))
        res = run_chaos_point("ahl", scen, num_nodes=6, workload="ycsb")
        _assert_clean(res)
        system = res.extras["system"]
        assert discover_groups(system) == [system.committee]
        assert res.injection_log == (
            "0.500000 primary ahl-ref0 silenced",
            "2.500000 ahl-ref0 unsilenced (0 swallowed, 0 released)")


class TestByzantine:
    def test_silent_leader_voted_out_and_progress_resumes(self):
        scen = Scenario(
            name="quorum-silent-leader",
            steps=(SilentLeader(at=1.0, until=5.0),),
            settle=6.0)
        res = run_chaos_point("quorum", scen, seed=11,
                              system_kwargs={"consensus": "ibft"})
        _assert_clean(res)
        group = res.extras["system"].group
        assert all(r.view >= 1 for r in group.replicas.values())
        assert group.replicas["quorum0"].silenced_count >= 1

    def test_censoring_primary_blocks_then_releases(self):
        scen = Scenario(
            name="quorum-censor-all",
            steps=(Censor(at=1.0, match="", until=5.0),),
            settle=6.0)
        res = run_chaos_point("quorum", scen, seed=11,
                              system_kwargs={"consensus": "ibft"})
        _assert_clean(res)
        primary = res.extras["system"].group.replicas["quorum0"]
        assert primary.censored_count >= 1
        assert primary.censor_predicate is None     # window closed
        assert any("released" in l for l in res.injection_log)

    def test_equivocating_primary_cannot_fork(self):
        # Equivocation wedges the sequence it poisons (the conflicting
        # digests never reach a common quorum, and the primary looks
        # live), so this scenario checks *safety only*.
        scen = Scenario(
            name="quorum-equivocate",
            steps=(Equivocate(at=1.0, until=3.0),),
            settle=3.0, expect_liveness=False)
        res = run_chaos_point("quorum", scen, seed=11,
                              system_kwargs={"consensus": "ibft"})
        assert res.ok, f"safety violated: {res.violations}"
        group = res.extras["system"].group
        # no two replicas executed different items at any common sequence
        replicas = list(group.replicas.values())
        common = min(r.executed_seq for r in replicas)
        for seq in range(1, common + 1):
            items = {id(r._history[seq]) for r in replicas
                     if seq in r._history}
            assert len(items) <= 1


#: Every name ``build_system`` accepts: the dedicated models and every
#: Table 2 profile (the rest compose as hybrids).
BUILDER_NAMES = sorted(set(TABLE2) | set(DEDICATED_MODELS))


@pytest.mark.parametrize("name", BUILDER_NAMES)
def test_every_system_runs_smallbank_logic_and_conserves_balances(name):
    """A fault-free SmallBank run (a zero-delay gray window on the last
    node) must conserve the balance sum on every system: a path that
    installs the ops' placeholder values instead of running the logic
    drifts it.  tikv's serializable path cannot run logic and says so.
    The liveness verdict is not this test's: blockchaindb's PoW commits
    nothing inside this short horizon."""
    nodes = 6 if name in ("ahl", "spanner") else 4
    last = build_system(Environment(), name,
                        SystemConfig(num_nodes=nodes)).nodes[-1].name
    scen = Scenario(
        name="noop",
        steps=(GrayNode(at=0.5, node=last, extra_delay=0.0, drop_rate=0.0,
                        until=0.6),),
        settle=3.0)
    if name == "tikv":
        with pytest.raises(ValueError,
                           match=r'extras=\{"isolation": "snapshot"\}'):
            run_chaos_point(name, scen, num_nodes=nodes, seed=11)
        return
    res = run_chaos_point(name, scen, num_nodes=nodes, seed=11)
    assert not [v for v in res.violations if "conserved-balances" in v]
