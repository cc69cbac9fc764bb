"""WAL crash-recovery edge cases: torn writes, corrupt tails, truncation.

The replay contract (Section 3.3.1's pruned-WAL recovery): records up to
the first torn or checksum-failing byte replay cleanly; everything after
is discarded, never garbled.
"""

import pytest

from repro.storage import TOMBSTONE
from repro.storage.engine import engine_for
from repro.storage.lsm import LSMTree
from repro.storage.wal import WalRecord, WriteAheadLog


def _filled(n: int = 10) -> WriteAheadLog:
    wal = WriteAheadLog()
    for i in range(n):
        wal.append(WalRecord(i + 1, f"k{i}".encode(), f"v{i}".encode()))
    wal.sync()
    return wal


class TestCorruptTail:
    def test_corrupt_tail_stops_replay_at_last_good_record(self):
        wal = _filled(10)
        wal.corrupt_tail(1)               # flip the last record's tail byte
        records = list(wal.replay())
        assert len(records) == 9          # the poisoned record is dropped
        assert [r.seq for r in records] == list(range(1, 10))
        assert records[-1].value == b"v8"

    def test_deep_corruption_drops_more_records(self):
        wal = _filled(10)
        # flip enough bytes to reach into earlier records
        wal.corrupt_tail(60)
        records = list(wal.replay())
        assert len(records) < 9
        for i, rec in enumerate(records):  # the survivors are intact
            assert rec.seq == i + 1
            assert rec.value == f"v{i}".encode()

    def test_corrupt_empty_wal_is_noop(self):
        wal = WriteAheadLog()
        wal.corrupt_tail(8)
        assert list(wal.replay()) == []


class TestTornWrite:
    def test_crash_mid_record_leaves_clean_prefix(self):
        wal = _filled(5)
        # a record half-written at crash time: synced_to falls mid-record
        wal.append(WalRecord(6, b"k5", b"v5"))
        wal.synced_to = wal.size_bytes() - 3   # torn: last 3 bytes unsynced
        wal.crash()
        records = list(wal.replay())
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]

    def test_torn_length_prefix(self):
        wal = _filled(3)
        # only 4 bytes of the next record's 8-byte header survive
        wal._buffer.extend((999).to_bytes(4, "big"))
        records = list(wal.replay())
        assert [r.seq for r in records] == [1, 2, 3]


class TestTruncateAfterReplay:
    def test_truncate_resets_log_and_replay_is_empty(self):
        wal = _filled(8)
        assert len(list(wal.replay())) == 8
        wal.truncate()
        assert wal.size_bytes() == 0
        assert wal.synced_to == 0
        assert list(wal.replay()) == []

    def test_appends_after_truncate_replay_alone(self):
        wal = _filled(4)
        list(wal.replay())
        wal.truncate()                    # checkpoint after recovery
        wal.append(WalRecord(5, b"k", b"post"))
        wal.sync()
        records = list(wal.replay())
        assert [r.seq for r in records] == [5]
        assert records[0].value == b"post"


class TestBatchCheckpoint:
    """A batch that flushes mid-way logs only what outlives its last
    flush; the rest is counted, never encoded."""

    def test_crash_after_mid_batch_flush_replays_the_tail(self):
        lsm = LSMTree(memtable_limit=16)
        lsm.write_batch([(b"a%03d" % i, b"x") for i in range(5)])
        # seqs 6..45; the memtable fills at the 11th and the 27th record
        items = [(b"k%03d" % i, b"v%d" % i) for i in range(40)]
        assert lsm.write_batch(items) == 2
        assert lsm.wal.appended == 45
        before = list(lsm._memtable.items())
        lsm.wal.crash()
        assert lsm.recover() == 13
        assert [r.seq for r in lsm.wal.replay()] == list(range(33, 46))
        assert list(lsm._memtable.items()) == before == items[27:]

    def test_batch_log_equals_key_at_a_time_log(self):
        batched, single = LSMTree(memtable_limit=16), LSMTree(memtable_limit=16)
        items = [(b"k%03d" % (i * 7 % 50), b"v%d" % i) for i in range(60)]
        batched.write_batch(items)
        for key, value in items:
            single.put(key, value)
        for lsm in (batched, single):
            assert lsm.wal.synced_to == lsm.wal.size_bytes()
        assert batched.wal.appended == single.wal.appended == 60
        assert bytes(batched.wal._buffer) == bytes(single.wal._buffer)
        assert [(r.seq, r.key, r.value) for r in batched.wal.replay()] == [
            (r.seq, r.key, r.value) for r in single.wal.replay()]


class TestRejectedWriteSet:
    """A write set the structure rejects raises before the engine counts
    or journals it, so a later crash and recovery never replay it."""

    @pytest.mark.parametrize("kind, bad", [
        ("lsm", {"c": b"3", "d": TOMBSTONE}),
        ("mpt", {"c": b"3", "": b"empty key"}),
    ])
    def test_rejected_set_leaves_engine_and_log_untouched(self, kind, bad):
        engine = engine_for(kind, wal=True)
        engine.apply_write_set({"a": b"1", "b": b"2"})
        engine.commit(1)
        counts = (engine.wal.appended, engine.puts, engine._node_ops)
        log = bytes(engine.wal._buffer)
        with pytest.raises(ValueError):
            engine.apply_write_set(bad)
        assert (engine.wal.appended, engine.puts, engine._node_ops) == counts
        assert bytes(engine.wal._buffer) == log
        engine.put("e", b"5")
        engine.commit(2)
        root = engine.commit(3).root
        engine.crash()
        assert engine.recover().records == 3
        assert [engine.get(k) for k in "abcde"] == [
            b"1", b"2", None, None, b"5"]
        assert engine.commit(4).root == root
