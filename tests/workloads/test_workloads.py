"""Tests for Zipf, YCSB, Smallbank generators and the driver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn import OpType
from repro.workloads import (DriverConfig, SmallbankConfig, SmallbankWorkload,
                             YcsbConfig, YcsbWorkload, ZipfGenerator,
                             decode_balance, encode_balance, run_closed_loop)
from repro.workloads.smallbank import INITIAL_BALANCE


# -- Zipf ------------------------------------------------------------------------

def test_zipf_uniform_when_theta_zero():
    gen = ZipfGenerator(1000, theta=0.0, rng=random.Random(1))
    draws = [gen.next() for _ in range(20_000)]
    counts = [0] * 1000
    for d in draws:
        counts[d] += 1
    assert max(counts) < 60  # no hot key under uniform


def test_zipf_skews_at_theta_one():
    gen = ZipfGenerator(1000, theta=1.0, rng=random.Random(2),
                        scrambled=False)
    draws = [gen.next_rank() for _ in range(50_000)]
    top = sum(1 for d in draws if d == 0) / len(draws)
    expected = 1.0 / sum(1 / i for i in range(1, 1001))  # 1/H_1000
    assert abs(top - expected) < 0.02


def test_zipf_probability_sums_to_one():
    gen = ZipfGenerator(100, theta=0.8)
    total = sum(gen.probability(r) for r in range(100))
    assert total == pytest.approx(1.0)


def test_zipf_probability_monotone_in_rank():
    gen = ZipfGenerator(100, theta=0.6)
    probs = [gen.probability(r) for r in range(100)]
    assert all(probs[i] >= probs[i + 1] for i in range(99))


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfGenerator(0)
    with pytest.raises(ValueError):
        ZipfGenerator(10, theta=-1)


def test_zipf_draws_in_range():
    gen = ZipfGenerator(37, theta=1.0, rng=random.Random(3))
    assert all(0 <= gen.next() < 37 for _ in range(1000))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 500), st.floats(0.0, 1.2))
def test_zipf_property_in_range(n, theta):
    gen = ZipfGenerator(n, theta=theta, rng=random.Random(0))
    for _ in range(20):
        assert 0 <= gen.next() < n


# -- YCSB ------------------------------------------------------------------------------

def test_ycsb_initial_records_shape():
    wl = YcsbWorkload(YcsbConfig(record_count=100, record_size=64))
    records = wl.initial_records()
    assert len(records) == 100
    assert all(len(v) == 64 for v in records.values())
    assert list(records) == [wl.key(i) for i in range(100)]


def test_ycsb_draws_share_the_loaded_key_objects():
    wl = YcsbWorkload(YcsbConfig(record_count=50, theta=0.9, ops_per_txn=3))
    loaded = {key: key for key in wl.initial_records()}
    for _ in range(20):
        for op in wl.next_rmw().ops:
            assert loaded[op.key] is op.key


def test_ycsb_update_txn_structure():
    wl = YcsbWorkload(YcsbConfig(record_count=100, record_size=32,
                                 ops_per_txn=4))
    txn = wl.next_update()
    assert len(txn.ops) == 4
    assert all(op.op_type is OpType.WRITE for op in txn.ops)
    assert len(set(txn.keys)) == 4  # distinct keys
    assert txn.payload_size == 4 * 32


def test_ycsb_query_txn_is_read_only():
    wl = YcsbWorkload(YcsbConfig(record_count=100))
    assert wl.next_query().is_read_only


def test_ycsb_rmw_txn_is_update():
    wl = YcsbWorkload(YcsbConfig(record_count=100))
    txn = wl.next_rmw()
    assert all(op.op_type is OpType.UPDATE for op in txn.ops)


def test_ycsb_fix_total_size_divides_record():
    wl = YcsbWorkload(YcsbConfig(record_count=100, record_size=1000,
                                 ops_per_txn=10, fix_total_size=True))
    txn = wl.next_update()
    assert txn.payload_size == 10 * 100


def test_ycsb_mixed_workload_respects_read_proportion():
    wl = YcsbWorkload(YcsbConfig(record_count=100, read_proportion=1.0))
    assert all(wl.next_transaction().is_read_only for _ in range(20))


def test_ycsb_deterministic_for_seed():
    keys1 = [YcsbWorkload(YcsbConfig(record_count=50, seed=5)).next_update().keys
             for _ in range(1)]
    keys2 = [YcsbWorkload(YcsbConfig(record_count=50, seed=5)).next_update().keys
             for _ in range(1)]
    assert keys1 == keys2


# -- Smallbank -----------------------------------------------------------------------------

def test_smallbank_initial_records():
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=50))
    records = wl.initial_records()
    assert len(records) == 100  # checking + savings
    assert decode_balance(records[wl.checking(0)]) == INITIAL_BALANCE


def test_balance_encoding_roundtrip():
    for amount in (0, 1, -1, 10_000, -99_999):
        assert decode_balance(encode_balance(amount)) == amount
    assert decode_balance(b"") == 0


def test_send_payment_conserves_money():
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=100, theta=0.0))
    txn = wl.send_payment("c")
    src, dst = txn.ops[0].key, txn.ops[1].key
    reads = {src: encode_balance(500), dst: encode_balance(100)}
    writes = txn.logic(reads)
    if writes is not None:
        total_before = 600
        total_after = sum(decode_balance(v) for v in writes.values())
        assert total_after == total_before


def test_send_payment_insufficient_funds_aborts():
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=100))
    txn = wl.send_payment("c")
    src, dst = txn.ops[0].key, txn.ops[1].key
    reads = {src: encode_balance(0), dst: encode_balance(0)}
    assert txn.logic(reads) is None


def test_transact_savings_no_negative_balance():
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=10, seed=1))
    for _ in range(50):
        txn = wl.transact_savings("c")
        key = txn.ops[0].key
        writes = txn.logic({key: encode_balance(10)})
        if writes is not None:
            assert decode_balance(writes[key]) >= 0


def test_write_check_overdraft_penalty():
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=10, seed=2))
    txn = wl.write_check("c")
    check_key = txn.ops[0].key
    save_key = txn.ops[1].key
    # force an overdraft: total < any positive amount
    writes = txn.logic({check_key: encode_balance(0),
                        save_key: encode_balance(0)})
    new_balance = decode_balance(writes[check_key])
    assert new_balance < 0  # amount + penalty deducted


def test_amalgamate_moves_everything():
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=100, seed=3))
    txn = wl.amalgamate("c")
    sa, ca, cb = (op.key for op in txn.ops)
    writes = txn.logic({sa: encode_balance(30), ca: encode_balance(20),
                        cb: encode_balance(5)})
    assert decode_balance(writes[sa]) == 0
    assert decode_balance(writes[ca]) == 0
    assert decode_balance(writes[cb]) == 55


def test_balance_query_read_only():
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=10))
    assert wl.balance("c").is_read_only


def test_smallbank_mix_produces_all_procedures():
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=1000, seed=4))
    op_counts = {len(wl.next_transaction().ops) for _ in range(100)}
    assert {1, 2, 3} <= op_counts  # single, double and triple record txns


# -- configs the generators cannot draw ------------------------------------------------

@pytest.mark.parametrize("ops_per_txn", [0, 3])
def test_ycsb_rejects_ops_outside_record_count(ops_per_txn):
    """Three distinct keys out of two records would loop forever; zero
    keys would draw an empty transaction."""
    with pytest.raises(ValueError, match=f"ops_per_txn={ops_per_txn}"):
        YcsbWorkload(YcsbConfig(record_count=2, ops_per_txn=ops_per_txn))
    YcsbWorkload(YcsbConfig(record_count=2, ops_per_txn=2))


@pytest.mark.parametrize("procedures,match", [
    (("checking",), r"\['checking'\].*amalgamate"),
    ((), r"procedures=\(\)"),
])
def test_smallbank_rejects_procedures_it_cannot_draw(procedures, match):
    with pytest.raises(ValueError, match=match):
        SmallbankWorkload(SmallbankConfig(num_accounts=10,
                                          procedures=procedures))


@pytest.mark.parametrize("procedure", ["send_payment", "amalgamate"])
def test_smallbank_two_customer_procedures_need_two_accounts(procedure):
    with pytest.raises(ValueError, match=procedure):
        SmallbankWorkload(SmallbankConfig(num_accounts=1,
                                          procedures=(procedure,)))
    SmallbankWorkload(SmallbankConfig(num_accounts=1,
                                      procedures=("write_check",)))


# -- driver ------------------------------------------------------------------------------------

class InstantSystem:
    """Minimal TransactionalSystem stub: commits instantly."""

    def __init__(self, env, delay=0.001, abort_every=0):
        self.env = env
        self.delay = delay
        self.abort_every = abort_every
        self.count = 0

    def submit(self, txn):
        ev = self.env.event()
        self.count += 1
        aborts = self.abort_every and self.count % self.abort_every == 0

        def go():
            txn.submitted_at = self.env.now
            yield self.env.timeout(self.delay)
            if aborts:
                from repro.txn import AbortReason
                txn.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
            else:
                txn.mark_committed()
            ev.succeed(txn)

        self.env.process(go())
        return ev

    submit_query = submit


def test_driver_measures_throughput(env):
    system = InstantSystem(env, delay=0.01)
    wl = YcsbWorkload(YcsbConfig(record_count=100))
    result = run_closed_loop(env, system, wl.next_update,
                             DriverConfig(clients=10, warmup_txns=20,
                                          measure_txns=200))
    assert result.measured == 200
    # 10 clients, 10 ms each -> ~1000 tps
    assert result.tps == pytest.approx(1000, rel=0.15)
    assert result.mean_latency == pytest.approx(0.01, rel=0.05)


def test_driver_goodput_excludes_aborts(env):
    system = InstantSystem(env, delay=0.01, abort_every=2)
    wl = YcsbWorkload(YcsbConfig(record_count=100))
    result = run_closed_loop(env, system, wl.next_update,
                             DriverConfig(clients=10, warmup_txns=10,
                                          measure_txns=200))
    assert result.abort_rate == pytest.approx(0.5, abs=0.1)
    assert result.tps == pytest.approx(
        result.extras["completed_tps"] * (1 - result.abort_rate), rel=0.05)


def test_driver_respects_max_sim_time(env):
    system = InstantSystem(env, delay=10.0)  # slower than the wall
    wl = YcsbWorkload(YcsbConfig(record_count=100))
    result = run_closed_loop(env, system, wl.next_update,
                             DriverConfig(clients=1, warmup_txns=1,
                                          measure_txns=10_000,
                                          max_sim_time=30.0))
    assert result.measured < 10_000
