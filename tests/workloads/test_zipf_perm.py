"""Feistel scramble bijectivity + alias-sampler properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.ycsb import YcsbConfig, YcsbWorkload
from repro.workloads.zipf import ZipfGenerator


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 100,
                               1000, 2049, 4096])
def test_scramble_is_a_permutation(n):
    gen = ZipfGenerator(n, theta=0.5)
    image = sorted(gen._scramble(i) for i in range(n))
    assert image == list(range(n))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3000))
def test_scramble_bijective_for_any_n(n):
    gen = ZipfGenerator(n, theta=0.0)
    assert len({gen._scramble(i) for i in range(n)}) == n


def test_scramble_deterministic_across_instances():
    a = ZipfGenerator(997, theta=0.9)
    b = ZipfGenerator(997, theta=0.2)  # theta must not affect the mapping
    assert [a._scramble(i) for i in range(997)] == \
        [b._scramble(i) for i in range(997)]


def test_scramble_actually_scrambles():
    gen = ZipfGenerator(1000, theta=1.0)
    assert [gen._scramble(i) for i in range(10)] != list(range(10))


def test_unscrambled_passthrough():
    gen = ZipfGenerator(50, theta=1.0, scrambled=False)
    assert [gen._scramble(i) for i in range(50)] == list(range(50))


def test_alias_tables_shared_across_instances():
    g1 = ZipfGenerator(5000, theta=0.7)
    g2 = ZipfGenerator(5000, theta=0.7)
    assert g1._prob is g2._prob  # one table, many closed-loop clients
    assert g1._alias is g2._alias


def test_alias_sampler_matches_pmf():
    n, theta = 50, 1.0
    gen = ZipfGenerator(n, theta=theta, rng=random.Random(7),
                        scrambled=False)
    draws = 200_000
    counts = [0] * n
    for _ in range(draws):
        counts[gen.next_rank()] += 1
    for rank in (0, 1, 5, 20):
        empirical = counts[rank] / draws
        assert empirical == pytest.approx(gen.probability(rank), abs=0.01)


def test_one_uniform_variate_per_draw():
    """The alias draw consumes exactly one rng.random() call, keeping
    downstream stream positions stable for other rng users."""
    class CountingRandom(random.Random):
        calls = 0

        def random(self):
            self.calls += 1
            return super().random()

    rng = CountingRandom(3)
    gen = ZipfGenerator(100, theta=0.9, rng=rng)
    for _ in range(500):
        gen.next()
    assert rng.calls == 500


# -- pinned streams ----------------------------------------------------------
# Literals taken before the rank -> item cache existed; a cache that changed
# what a draw returns, or how much of the rng it consumes, breaks them.

def test_zipf_draw_stream_pinned():
    gen = ZipfGenerator(10_000, 0.99, rng=random.Random(8))
    assert [gen.next() for _ in range(32)] == [
        2350, 8066, 4318, 3133, 3850, 5595, 5203, 3166, 8820, 7571, 7571,
        7796, 8813, 3611, 5758, 3166, 9452, 3166, 9871, 5554, 999, 1014,
        3166, 9297, 7943, 7364, 4645, 448, 999, 6873, 7796, 4006]


def test_ycsb_query_keys_pinned_at_ledger_inputs():
    """The key stream of the ledger's ``tikv_query_zipf`` point at seed 7
    (10k records, theta 0.99, one op, workload seed 7 + 1), drawn after
    the load as the ledger draws it."""
    workload = YcsbWorkload(YcsbConfig(record_count=10_000, record_size=1000,
                                       ops_per_txn=1, theta=0.99, seed=8))
    workload.initial_records()
    keys = [workload.next_query().ops[0].key for _ in range(16)]
    assert keys == [
        "user000000007796", "user000000009789", "user000000000014",
        "user000000005881", "user000000003166", "user000000005678",
        "user000000002392", "user000000009871", "user000000005343",
        "user000000005106", "user000000000190", "user000000001690",
        "user000000007571", "user000000002181", "user000000008269",
        "user000000001968"]


def test_distinct_keys_multi_op_pinned_with_rng_consumption():
    """``k > 1`` keeps redrawing until it holds ``k`` distinct keys.  Each
    alias draw is one ``rng.random()`` call, so the literal call counts
    (more than 4 where a draw repeated) pin how far every call moves the
    stream."""
    workload = YcsbWorkload(YcsbConfig(record_count=50, theta=0.99,
                                       ops_per_txn=4, seed=3))
    reference = random.Random(3)
    expected = [
        ([18, 27, 37, 31], 4),
        ([10, 13, 30, 15], 4),
        ([32, 37, 13, 15], 5),
        ([33, 10, 13, 22], 6),
        ([8, 10, 4, 13], 5),
        ([8, 10, 13, 14], 5),
    ]
    for indices, draws in expected:
        keys = workload._distinct_keys(4)
        assert keys == [workload.key(i) for i in indices]
        assert len(set(keys)) == 4
        for _ in range(draws):
            reference.random()
        assert workload.rng.getstate() == reference.getstate()
