"""Tests for the storage engines: skip list, B+ tree, SSTable, LSM, WAL."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (BPlusTree, BloomFilter, LSMTree, SkipList,
                           SSTable, TOMBSTONE, WalRecord, WriteAheadLog)


# -- skip list ---------------------------------------------------------------

def test_skiplist_put_get_overwrite():
    sl = SkipList()
    sl.put(b"b", 1)
    sl.put(b"a", 2)
    sl.put(b"b", 3)
    assert sl.get(b"b") == 3
    assert sl.get(b"a") == 2
    assert sl.get(b"zz") is None
    assert len(sl) == 2


def test_skiplist_items_sorted():
    sl = SkipList()
    keys = [f"k{i:03d}".encode() for i in range(100)]
    for k in random.Random(3).sample(keys, len(keys)):
        sl.put(k, k)
    assert [k for k, _ in sl.items()] == sorted(keys)


def test_skiplist_range():
    sl = SkipList()
    for i in range(50):
        sl.put(f"{i:02d}".encode(), i)
    got = [v for _, v in sl.range(b"10", b"20")]
    assert got == list(range(10, 20))


def test_skiplist_contains():
    sl = SkipList()
    sl.put(b"x", None)  # None value must still count as present
    assert b"x" in sl
    assert b"y" not in sl


# -- B+ tree -------------------------------------------------------------------

def test_btree_requires_min_order():
    with pytest.raises(ValueError):
        BPlusTree(order=2)


def test_btree_put_get_delete():
    bt = BPlusTree(order=4)
    for i in range(200):
        bt.put(i, i * 2)
    assert len(bt) == 200
    assert bt.get(123) == 246
    assert bt.delete(123)
    assert not bt.delete(123)
    assert bt.get(123) is None
    assert len(bt) == 199


def test_btree_overwrite_does_not_grow():
    bt = BPlusTree(order=4)
    bt.put("k", 1)
    bt.put("k", 2)
    assert bt.get("k") == 2
    assert len(bt) == 1


def test_btree_items_sorted_and_range():
    bt = BPlusTree(order=5)
    keys = list(range(500))
    for k in random.Random(1).sample(keys, len(keys)):
        bt.put(k, str(k))
    assert [k for k, _ in bt.items()] == keys
    assert [k for k, _ in bt.range(100, 110)] == list(range(100, 110))


def test_btree_depth_grows_logarithmically():
    bt = BPlusTree(order=8)
    for i in range(4000):
        bt.put(i, i)
    assert 3 <= bt.depth() <= 6
    assert bt.node_count() > 4000 / 8


def _walked_depth(bt: BPlusTree) -> int:
    depth, node = 1, bt._root
    while not node.leaf:
        depth, node = depth + 1, node.children[0]
    return depth


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 300)), max_size=400),
       st.integers(3, 8))
def test_btree_depth_counter_matches_walk(ops, order):
    """The height kept on root splits equals a walk to the leftmost
    leaf after any mix of puts and (lazy) deletes."""
    bt = BPlusTree(order=order)
    for is_delete, key in ops:
        if is_delete:
            bt.delete(key)
        else:
            bt.put(key, key)
        assert bt.depth() == _walked_depth(bt)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(-1000, 1000), st.integers(),
                       min_size=0, max_size=120))
def test_btree_matches_dict_model(model):
    bt = BPlusTree(order=4)
    for k, v in model.items():
        bt.put(k, v)
    for k, v in model.items():
        assert bt.get(k) == v
    assert len(bt) == len(model)
    assert [k for k, _ in bt.items()] == sorted(model)


# -- Bloom filter & SSTable ------------------------------------------------------

def test_bloom_no_false_negatives():
    bloom = BloomFilter(capacity=100)
    keys = [f"k{i}".encode() for i in range(100)]
    for k in keys:
        bloom.add(k)
    assert all(bloom.may_contain(k) for k in keys)


def test_bloom_some_true_negatives():
    bloom = BloomFilter(capacity=100)
    for i in range(100):
        bloom.add(f"k{i}".encode())
    misses = sum(not bloom.may_contain(f"absent{i}".encode())
                 for i in range(1000))
    assert misses > 800  # ~1% false-positive target at 10 bits/key


def test_sstable_requires_sorted_input():
    with pytest.raises(ValueError):
        SSTable([(b"b", b"1"), (b"a", b"2")])
    with pytest.raises(ValueError):
        SSTable([(b"a", b"1"), (b"a", b"2")])  # duplicates forbidden


def test_sstable_get_and_bounds():
    entries = [(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(100)]
    table = SSTable(entries)
    assert table.get(b"k050") == b"v50"
    assert table.get(b"k999") is None
    assert table.get(b"a") is None  # below min: no bloom probe needed
    assert table.min_key == b"k000" and table.max_key == b"k099"


def test_sstable_overlaps():
    t1 = SSTable([(b"a", b"1"), (b"m", b"2")])
    t2 = SSTable([(b"n", b"1"), (b"z", b"2")])
    t3 = SSTable([(b"l", b"1"), (b"p", b"2")])
    assert not t1.overlaps(t2)
    assert t1.overlaps(t3) and t3.overlaps(t2)


def _table(n: int) -> tuple[SSTable, list[bytes]]:
    rng = random.Random(n)
    keys = sorted({rng.randbytes(rng.randrange(1, 16)) for _ in range(n)})
    return SSTable([(key, b"v" + key) for key in keys]), keys


@pytest.mark.parametrize("n", [0, 1, 6, 7, 300])
def test_sstable_fills_the_filter_an_eager_build_fills(n):
    """Built without a fill, a table's first read of ``bloom`` gives the
    bits of a filter filled with its keys up front; its size counts the
    same filter bytes before and after (6 and 7 keys straddle the
    64-bit floor)."""
    table, keys = _table(n)
    size = table.data_bytes()
    assert table._bloom is None
    eager = BloomFilter(max(1, len(keys)))
    eager.add_many(keys)
    bloom = table.bloom
    assert (bloom.nbits, bloom._bits) == (eager.nbits, eager._bits)
    assert table.bloom is bloom
    assert table.data_bytes() == size
    assert size - len(bloom._bits) == (
        sum(len(k) + len(v) + 8 for k, v in table.items())
        + sum(len(a) + 8 for a in table._anchors))


@pytest.mark.parametrize("n", [1, 7, 300])
def test_unfilled_sstable_get_finds_keys_and_rejects_absent_ones(n):
    table, keys = _table(n)
    assert table._bloom is None
    assert [table.get(key) for key in keys] == [b"v" + key for key in keys]
    present = set(keys)
    probes = [key + b"\x00" for key in keys] + [b"", b"\xff" * 17]
    assert all(table.get(key) is None for key in probes
               if key not in present)


# -- WAL ----------------------------------------------------------------------------

def test_wal_replay_roundtrip():
    wal = WriteAheadLog()
    for i in range(10):
        wal.append(WalRecord(i, f"k{i}".encode(), f"v{i}".encode()))
    wal.sync()
    records = list(wal.replay())
    assert len(records) == 10
    assert records[3].key == b"k3" and records[3].value == b"v3"


def test_wal_crash_discards_unsynced():
    wal = WriteAheadLog()
    wal.append(WalRecord(1, b"a", b"1"))
    wal.sync()
    wal.append(WalRecord(2, b"b", b"2"))  # not synced
    wal.crash()
    assert [r.seq for r in wal.replay()] == [1]


def test_wal_corrupt_tail_stops_replay_cleanly():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append(WalRecord(i, b"k", b"v"))
    wal.corrupt_tail(2)
    assert len(list(wal.replay())) == 4


def test_wal_truncate():
    wal = WriteAheadLog()
    wal.append(WalRecord(1, b"k", b"v"))
    wal.truncate()
    assert list(wal.replay()) == []
    assert wal.size_bytes() == 0


# -- LSM tree --------------------------------------------------------------------------

def test_lsm_basic_roundtrip_with_flushes():
    lsm = LSMTree(memtable_limit=8)
    for i in range(100):
        lsm.put(f"k{i:03d}".encode(), f"v{i}".encode())
    assert lsm.table_count() >= 1  # flushed at least once
    for i in range(100):
        assert lsm.get(f"k{i:03d}".encode()) == f"v{i}".encode()


def test_lsm_newest_version_wins_across_levels():
    lsm = LSMTree(memtable_limit=4)
    for round_ in range(5):
        for i in range(8):
            lsm.put(b"hot", f"round{round_}".encode())
            lsm.put(f"filler{round_}:{i}".encode(), b"x")
    assert lsm.get(b"hot") == b"round4"


def test_lsm_delete_and_tombstone():
    lsm = LSMTree(memtable_limit=4)
    lsm.put(b"k", b"v")
    lsm.flush()
    lsm.delete(b"k")
    assert lsm.get(b"k") is None
    assert b"k" not in lsm
    lsm.flush()
    assert lsm.get(b"k") is None


def test_lsm_tombstone_value_collision_rejected():
    lsm = LSMTree()
    with pytest.raises(ValueError):
        lsm.put(b"k", TOMBSTONE)


def test_lsm_batch_tombstone_collision_rejected_before_any_write():
    """The colliding value comes after the record that would fill the
    memtable: validation runs first, so nothing is logged, inserted,
    flushed or counted."""
    lsm = LSMTree(memtable_limit=4)
    lsm.write_batch([(b"a", b"1"), (b"b", b"2")])

    def state():
        return (bytes(lsm.wal._buffer), lsm.wal.appended, lsm.wal.synced_to,
                list(lsm._memtable.items()), lsm._seq, lsm.table_count(),
                lsm.user_bytes_written, lsm.bytes_flushed)

    before = state()
    with pytest.raises(ValueError):
        lsm.write_batch([(b"c", b"3"), (b"d", b"4"), (b"e", TOMBSTONE)])
    assert state() == before


def test_lsm_batch_none_deletes():
    lsm = LSMTree(memtable_limit=3)
    flushes = lsm.write_batch([(b"a", b"1"), (b"b", b"2"), (b"c", b"3"),
                               (b"a", None), (b"d", b"4")])
    assert flushes == 1
    assert lsm.get(b"a") is None and lsm.get(b"b") == b"2"
    assert [(k, v) for k, v in lsm.scan(b"a", b"z")] == [
        (b"b", b"2"), (b"c", b"3"), (b"d", b"4")]


def test_lsm_scan_merges_levels():
    lsm = LSMTree(memtable_limit=4)
    model = {}
    rng = random.Random(9)
    for i in range(200):
        k = f"k{rng.randrange(50):02d}".encode()
        v = f"v{i}".encode()
        lsm.put(k, v)
        model[k] = v
    expected = sorted((k, v) for k, v in model.items() if b"k10" <= k < b"k30")
    assert list(lsm.scan(b"k10", b"k30")) == expected


def test_lsm_recover_from_wal():
    lsm = LSMTree(memtable_limit=1000)  # everything stays in the memtable
    for i in range(20):
        lsm.put(f"k{i}".encode(), f"v{i}".encode())
    recovered = lsm.recover()
    assert recovered == 20
    assert lsm.get(b"k7") == b"v7"


def test_lsm_write_amplification_positive_after_compaction():
    lsm = LSMTree(memtable_limit=8, max_l0_tables=2)
    for i in range(400):
        lsm.put(f"k{i % 40:02d}".encode(), bytes(20))
    assert lsm.write_amplification() > 1.0
    assert lsm.bytes_compacted > 0


def test_lsm_total_bytes_accounting():
    lsm = LSMTree(memtable_limit=16)
    for i in range(64):
        lsm.put(f"key{i:04d}".encode(), b"x" * 100)
    assert lsm.total_bytes() > 64 * 100


@settings(max_examples=20, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([b"a", b"b", b"c", b"d", b"e", b"f"]),
              st.one_of(st.binary(min_size=1, max_size=8), st.none())),
    min_size=0, max_size=200))
def test_lsm_matches_dict_model(ops):
    """Differential test: LSM == dict under interleaved put/delete."""
    lsm = LSMTree(memtable_limit=4, max_l0_tables=2)
    model = {}
    for key, value in ops:
        if value is None:
            lsm.delete(key)
            model.pop(key, None)
        else:
            lsm.put(key, value)
            model[key] = value
    for key in (b"a", b"b", b"c", b"d", b"e", b"f"):
        assert lsm.get(key) == model.get(key)
    assert len(lsm) == len(model)
