"""Scenario DSL: validation, timing, canonical fingerprints."""

import pytest

from repro.chaos import (AsymPartition, Censor, ClockSkew, CrashRestart,
                         Equivocate, GrayNode, LeaderChurn, Partition,
                         Scenario, SilentLeader, STEP_KINDS)


def _scen(*steps, **kw):
    return Scenario(name="t", steps=tuple(steps), **kw)


class TestStepValidation:
    def test_negative_at_rejected(self):
        with pytest.raises(ValueError, match="at must be"):
            _scen(Partition(at=-1.0, group_a=("a",), group_b=("b",)))

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="until must be > at"):
            _scen(Partition(at=2.0, group_a=("a",), group_b=("b",),
                            until=2.0))

    def test_partition_groups_required(self):
        with pytest.raises(ValueError, match="non-empty"):
            _scen(Partition(at=0.0, group_a=(), group_b=("b",)))

    def test_gray_drop_rate_range(self):
        with pytest.raises(ValueError, match="drop_rate"):
            _scen(GrayNode(at=0.0, node="a", drop_rate=1.0))

    def test_crash_restart_ordering(self):
        with pytest.raises(ValueError, match="restart_at"):
            _scen(CrashRestart(at=3.0, node="a", restart_at=3.0))

    def test_churn_downtime_below_period(self):
        with pytest.raises(ValueError, match="downtime"):
            _scen(LeaderChurn(at=0.0, until=10.0, period=1.0, downtime=1.0))

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            _scen(ClockSkew(at=0.0, node="a", skew=-0.01))

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            Scenario(name="empty", steps=())


class TestTiming:
    def test_end_time_is_last_heal(self):
        s = _scen(
            Partition(at=1.0, group_a=("a",), group_b=("b",), until=4.0),
            CrashRestart(at=2.0, node="a", restart_at=6.0),
            ClockSkew(at=3.0, node="b", skew=0.01),   # instant (no until)
        )
        assert s.end_time == 6.0
        assert s.horizon == 6.0 + s.settle

    def test_unbounded_window_ends_at_start(self):
        s = _scen(Partition(at=2.0, group_a=("a",), group_b=("b",)))
        assert s.end_time == 2.0


class TestFingerprint:
    def test_all_step_kinds_expressible(self):
        """Every fault class has a declarative, fingerprintable form."""
        steps = (
            Partition(at=0.5, group_a=("n0",), group_b=("n1", "n2"),
                      until=1.0),
            AsymPartition(at=1.5, group_a=("n0",), group_b=("n1",),
                          until=2.0),
            GrayNode(at=2.5, node="n1", extra_delay=0.003, drop_rate=0.1,
                     until=3.0),
            CrashRestart(at=3.5, node="n2", restart_at=4.0),
            LeaderChurn(at=4.5, until=6.5, period=1.0, downtime=0.2),
            ClockSkew(at=7.0, node="n0", skew=0.02, until=8.0),
            Equivocate(at=8.5, until=9.0),
            Censor(at=9.5, match="checking", until=10.0),
            SilentLeader(at=10.5, until=11.0),
        )
        assert len(STEP_KINDS) == 9
        assert {type(s) for s in steps} == set(STEP_KINDS)
        s = Scenario(name="all-kinds", steps=steps)
        fp = s.fingerprint()
        assert fp == s.fingerprint()          # stable
        assert len(fp) == 64
        for step in steps:
            assert type(step).__name__ in s.canonical()

    def test_fingerprint_sensitive_to_schedule(self):
        a = _scen(CrashRestart(at=1.0, node="n0", restart_at=2.0))
        b = _scen(CrashRestart(at=1.0, node="n0", restart_at=2.5))
        assert a.fingerprint() != b.fingerprint()
