"""Driver edge cases: timeouts, infrastructure errors, phase recording."""

import pytest

from repro.workloads import DriverConfig, YcsbConfig, YcsbWorkload, run_closed_loop


class FlakySystem:
    """Commits normally, but some submissions hang and some fail."""

    def __init__(self, env, hang_every=0, error_every=0, delay=0.005):
        self.env = env
        self.hang_every = hang_every
        self.error_every = error_every
        self.delay = delay
        self.count = 0

    def submit(self, txn):
        ev = self.env.event()
        self.count += 1
        if self.hang_every and self.count % self.hang_every == 0:
            return ev  # never fires: client must time out
        if self.error_every and self.count % self.error_every == 0:
            ev.fail(RuntimeError("leader failover"))
            return ev

        def go():
            txn.submitted_at = self.env.now
            txn.phases["service"] = self.delay
            yield self.env.timeout(self.delay)
            txn.mark_committed()
            ev.succeed(txn)

        self.env.process(go())
        return ev

    submit_query = submit


def test_driver_survives_hanging_submissions(env):
    system = FlakySystem(env, hang_every=10)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=8, warmup_txns=5, measure_txns=100,
                     txn_timeout=0.5, max_sim_time=120))
    assert result.measured == 100
    assert result.timeouts > 0


def test_driver_survives_failed_events(env):
    system = FlakySystem(env, error_every=7)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=8, warmup_txns=5, measure_txns=100,
                     max_sim_time=60))
    # Errors are not transaction outcomes: skipped by measured, but
    # counted on their own.
    assert result.measured == 100
    assert result.extras["submit_errors"] > 0


def test_clean_run_reports_no_submit_errors(env):
    system = FlakySystem(env)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=4, warmup_txns=2, measure_txns=50))
    assert "submit_errors" not in result.extras


@pytest.mark.parametrize("warmup_txns", [1, 30])
def test_every_submission_has_exactly_one_fate(env, warmup_txns):
    # The wall stops the clock with every client waiting on exactly one
    # submission, so each other submission completed, timed out (in
    # warm-up or measured) or failed -- and is counted once.
    clients = 6
    system = FlakySystem(env, hang_every=7, error_every=5)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=clients, warmup_txns=warmup_txns,
                     measure_txns=10**6, txn_timeout=0.02,
                     max_sim_time=2.0))
    assert result.extras["wall_hit"] and result.measured > 0
    completions = (warmup_txns - 1) + result.measured
    fates = (completions + result.timeouts
             + result.extras.get("warmup_timeouts", 0)
             + result.extras["submit_errors"] + clients)
    assert fates == system.count


@pytest.mark.parametrize("txn_timeout", [0.0, -1.0])
def test_non_positive_timeout_rejected_before_the_clock_starts(
        env, txn_timeout):
    # A zero timeout used to expire every transaction at its submission
    # instant and resubmit at once: simulated time never advanced, so
    # the max_sim_time wall never fired.
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    with pytest.raises(ValueError, match="txn_timeout"):
        run_closed_loop(env, FlakySystem(env), wl.next_update,
                        DriverConfig(clients=2, txn_timeout=txn_timeout))
    assert env.now == 0.0 and env.pending == 0


def test_driver_records_phases(env):
    system = FlakySystem(env)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=4, warmup_txns=2, measure_txns=50))
    assert result.phase_means()["service"] == pytest.approx(0.005)


def test_driver_zero_measured_returns_zero_tps(env):
    class NeverSystem:
        def __init__(self, env):
            self.env = env

        def submit(self, txn):
            return self.env.event()  # hangs forever

    system = NeverSystem(env)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=2, warmup_txns=1, measure_txns=10,
                     txn_timeout=0.1, max_sim_time=5))
    assert result.tps == 0.0
    assert result.measured == 0


def test_warmup_timeouts_kept_out_of_measured_count(env):
    # A short client timeout against a system whose every submission
    # hangs during warm-up: the timeouts observed before measurement
    # starts must land in extras["warmup_timeouts"], not in the
    # measured-window RunResult.timeouts.
    system = FlakySystem(env, hang_every=3)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=8, warmup_txns=40, measure_txns=60,
                     txn_timeout=0.05, max_sim_time=120))
    assert result.measured == 60
    assert result.extras.get("warmup_timeouts", 0) > 0
    assert result.timeouts > 0
    # Every third submission hangs, so the total of both counters can't
    # exceed the hangs the system actually produced.
    hangs = system.count // 3
    assert result.timeouts + result.extras["warmup_timeouts"] <= hangs


def test_no_warmup_phase_counts_all_timeouts_as_measured(env):
    system = FlakySystem(env, hang_every=5)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=4, warmup_txns=1, measure_txns=40,
                     txn_timeout=0.05, max_sim_time=60))
    assert result.timeouts > 0
    assert "warmup_timeouts" not in result.extras


def test_wall_truncation_sets_marker(env):
    system = FlakySystem(env, delay=0.05)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=2, warmup_txns=1, measure_txns=100_000,
                     max_sim_time=1.0))
    assert result.extras.get("wall_hit") is True
    assert result.measured < 100_000


def test_full_run_has_no_wall_marker(env):
    system = FlakySystem(env)
    wl = YcsbWorkload(YcsbConfig(record_count=50))
    result = run_closed_loop(
        env, system, wl.next_update,
        DriverConfig(clients=4, warmup_txns=2, measure_txns=50))
    assert "wall_hit" not in result.extras
    assert result.measured == 50
