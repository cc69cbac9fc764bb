"""The LSM's full state after seeded write streams, pinned as literals.

Each stream's final state is folded into one sha256: the WAL buffer and
its ``appended``/``synced_to`` counters, the write sequence, every
level's SSTables (keys, values, sparse-index anchors, bloom bits), the
memtable's entries with each skip-list node's level and the memtable
RNG's state, the byte counters, and, for the engine streams, the
engine's ``puts``/``node_ops`` and its own WAL.  A write-path change
that keeps these literals writes the same bytes to the same places in
the same order as the key-at-a-time path the literals were taken from.
A sixth literal pins a seeded interleaving of every
:class:`WriteAheadLog` operation on its own.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import TOMBSTONE, LSMTree, WriteAheadLog, engine_for


def _feed(h, *parts) -> None:
    for part in parts:
        if isinstance(part, int):
            h.update(b"i%d;" % part)
        else:
            h.update(b"b%d:" % len(part))
            h.update(part)


def _lsm_digest(h, lsm: LSMTree) -> None:
    wal = lsm.wal
    _feed(h, bytes(wal._buffer), wal.appended, wal.synced_to, lsm._seq)
    for depth, tables in enumerate(lsm.levels):
        _feed(h, depth, len(tables))
        for table in tables:
            _feed(h, table.level, len(table._keys))
            for key, value in zip(table._keys, table._values):
                _feed(h, key, value)
            for anchor in table._anchors:
                _feed(h, anchor)
            _feed(h, table.bloom.nbits, bytes(table.bloom._bits))
    memtable = lsm._memtable
    _feed(h, len(memtable), memtable._level,
          repr(memtable._rng.getstate()).encode())
    node = memtable._head.forward[0]
    while node is not None:
        _feed(h, node.key, node.value, len(node.forward))
        node = node.forward[0]
    _feed(h, lsm.bytes_flushed, lsm.bytes_compacted, lsm.user_bytes_written)


def _digest(lsm: LSMTree, engine=None) -> str:
    h = hashlib.sha256()
    _lsm_digest(h, lsm)
    if engine is not None:
        _feed(h, engine.puts, engine._node_ops, engine.commits)
        if engine.wal is not None:
            _feed(h, bytes(engine.wal._buffer), engine.wal.appended,
                  engine.wal.synced_to, engine._wal_seq)
    return h.hexdigest()


def _record_value(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size)


PINS = {
    "load_10k":
        "68cbbd0f9a1825b57886c2e37ca1af5bb2b070669521629891d04a6ff7bcfef8",
    "churn_64":
        "4c81039a4716a36eb46feb9793620772628bd90b2737140f4de53dea1ce34348",
    "exact_limit":
        "cf1684cd0de11d59fdb339f677b37ee5457b76f1d9a1eef0df67fbf2d3082d99",
    "engine_wal":
        "841569e201d623623ad30ea11b42cd1f428e65e23b0e104c5b04324de482c63c",
    "chaos_replay":
        "122eeb5ae1b62b5a8b3c6b6e40d8677719b23f0a985a013760dd3a9b762945dc",
    "wal_interleaving":
        "919d820aa1d2580f20fc6152b647958332dcb909616d45da84d2fd02547607d9",
}


def _load_10k() -> str:
    """10,000 ascending 1000-byte records in one engine write set
    (memtable limit 4096: two flushes, 1,808 records left in the WAL)."""
    rng = random.Random(42)
    engine = engine_for("lsm")
    engine.apply_write_set({f"user{i:012d}": _record_value(rng, 1000)
                            for i in range(10_000)})
    engine.commit(1)
    return _digest(engine.tree, engine)


def _churn_ops(seed: int = 5, count: int = 8000):
    """Random overwrites (80%) and deletes (20%) over 3,000 keys."""
    rng = random.Random(seed)
    ops = []
    for i in range(count):
        key = b"k%05d" % rng.randrange(3000)
        if rng.random() < 0.2:
            ops.append((key, None))
        else:
            ops.append((key, b"v%d-" % i + rng.randbytes(rng.randrange(40))))
    return ops


def _churn_64() -> str:
    """The churn stream key by key at memtable limit 64: flushes every
    64 distinct keys and compactions down to L2."""
    lsm = LSMTree(memtable_limit=64)
    for key, value in _churn_ops():
        if value is None:
            lsm.delete(key)
        else:
            lsm.put(key, value)
    assert len(lsm.levels) >= 3 and lsm.bytes_compacted > 0
    return _digest(lsm)


def _exact_limit() -> str:
    """A write set whose last record fills the memtable exactly, so the
    flush it triggers leaves the WAL empty."""
    rng = random.Random(7)
    engine = engine_for("lsm")
    engine.apply_write_set({f"a{i:06d}": _record_value(rng, 64)
                            for i in range(1000)})
    engine.commit(1)
    engine.apply_write_set({f"b{i:06d}": _record_value(rng, 64)
                            for i in range(3096)})
    assert engine.tree.wal.size_bytes() == 0 and len(engine.tree.levels[0]) == 1
    return _digest(engine.tree, engine)


def _engine_wal() -> str:
    """An engine with its own group-committed WAL: six blocks of random
    writes (the LSM flushes in the fifth, the 1 MiB checkpoint truncates
    the journal after the fourth), one unsynced block, a crash and a
    replay of the 1,953 synced records."""
    rng = random.Random(11)
    engine = engine_for("lsm", wal=True)
    for block in range(1, 7):
        engine.apply_write_set({f"user{rng.randrange(20_000):012d}":
                                _record_value(rng, 256)
                                for _ in range(1000)})
        engine.commit(block)
    engine.apply_write_set({f"user{rng.randrange(20_000):012d}":
                            _record_value(rng, 256) for _ in range(50)})
    engine.crash()
    engine.recover()
    return _digest(engine.tree, engine)


def _chaos_replay() -> str:
    """Checkpointing off, as the chaos injector sets it before a load:
    the replay of 7,463 records flushes the fresh LSM mid-way."""
    rng = random.Random(13)
    engine = engine_for("lsm", wal=True)
    engine.wal_checkpoint_bytes = None
    engine.apply_write_set({f"user{i:012d}": _record_value(rng, 100)
                            for i in range(6000)})
    engine.commit(1)
    for block in range(2, 5):
        engine.apply_write_set({f"user{rng.randrange(8000):012d}":
                                _record_value(rng, 100)
                                for _ in range(500)})
        engine.commit(block)
    engine.apply_write_set({f"user{rng.randrange(8000):012d}":
                            _record_value(rng, 100) for _ in range(50)})
    engine.crash()
    assert engine.recover().records == 7463
    assert len(engine.tree.levels[0]) == 1
    return _digest(engine.tree, engine)


def _wal_interleaving() -> str:
    """600 seeded WAL operations: batches (a third of them with leading
    checkpointed records), syncs, crashes, torn-tail corruptions,
    truncations and replays.  Each step folds ``size_bytes()``,
    ``synced_to`` and ``appended``; each replay folds its records, and
    the log's bytes are read only at the end, so appends pile up between
    reads."""
    rng = random.Random(17)
    wal = WriteAheadLog()
    h = hashlib.sha256()
    seq = 1
    for step in range(600):
        op = rng.random()
        if op < 0.45:
            items = [(rng.randbytes(rng.randrange(1, 12)),
                      rng.randbytes(rng.randrange(40)))
                     for _ in range(rng.randrange(1, 9))]
            checkpointed = (rng.randrange(len(items) + 1)
                            if rng.random() < 0.3 else 0)
            wal.append_batch(seq, items, checkpointed)
            seq += len(items)
        elif op < 0.65:
            wal.sync()
        elif op < 0.75:
            wal.crash()
        elif op < 0.82:
            wal.corrupt_tail(rng.randrange(1, 30))
        elif op < 0.87:
            wal.truncate()
        else:
            records = list(wal.replay())
            _feed(h, len(records))
            for record in records:
                _feed(h, record.seq, record.key, record.value)
        _feed(h, step, wal.size_bytes(), wal.synced_to, wal.appended)
    _feed(h, bytes(wal._buffer))
    return h.hexdigest()


STREAMS = {
    "load_10k": _load_10k,
    "churn_64": _churn_64,
    "exact_limit": _exact_limit,
    "engine_wal": _engine_wal,
    "chaos_replay": _chaos_replay,
    "wal_interleaving": _wal_interleaving,
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_lsm_state_matches_pin(name):
    assert STREAMS[name]() == PINS[name]


def test_churn_in_batches_matches_key_at_a_time_pin():
    """Batches of every size around the memtable limit, deletes as
    ``None``, reach the state the key-at-a-time stream pinned."""
    lsm = LSMTree(memtable_limit=64)
    ops, rng, i = _churn_ops(), random.Random(3), 0
    while i < len(ops):
        size = rng.choice((1, 2, 7, 63, 64, 65, 500))
        lsm.write_batch(ops[i:i + size])
        i += size
    assert _digest(lsm) == PINS["churn_64"]


# -- batch boundaries ------------------------------------------------------------

def _one_at_a_time(limit: int, ops) -> LSMTree:
    lsm = LSMTree(memtable_limit=limit)
    for record in ops:
        lsm.write_batch((record,))
    return lsm


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.integers(0, 63),
       st.randoms(use_true_random=False))
def test_batches_match_one_record_at_a_time(limit, prefill, rng):
    """Any cut of a stream into batches, after any partial memtable,
    reaches the state of the same records written one at a time: the
    runs flushed straight from a batch and the records that go through
    the memtable land exactly where single writes put them.  Keys come
    from ``2 * limit + 1`` names, so runs hold duplicates and still
    fill the memtable; a fifth of the records are deletes."""
    ops = [(b"k%03d" % rng.randrange(2 * limit + 1),
            None if rng.random() < 0.2 else rng.randbytes(rng.randrange(9)))
           for _ in range(rng.randrange(limit, 6 * limit + 1))]
    prefilled = [(b"p%02d" % i, b"pre") for i in range(prefill % limit)]
    lsm = _one_at_a_time(limit, prefilled)
    i = 0
    while i < len(ops):
        size = rng.randint(1, 3 * limit + 1)
        lsm.write_batch(ops[i:i + size])
        i += size
    assert _digest(lsm) == _digest(_one_at_a_time(limit, prefilled + ops))


def test_batch_with_few_distinct_keys_goes_through_the_memtable():
    """A batch of >= limit records but < limit distinct keys, from an
    empty memtable, flushes nothing and draws the node levels that single
    writes draw."""
    ops = [(b"k%d" % (i % 5), b"v%d" % i) for i in range(20)]
    lsm = LSMTree(memtable_limit=8)
    assert lsm.write_batch(ops) == 0
    assert len(lsm._memtable) == 5 and lsm.levels == [[]]
    assert _digest(lsm) == _digest(_one_at_a_time(8, ops))


def test_tombstone_collision_late_in_a_flushing_batch_writes_nothing():
    """A tombstone-valued record at the end of a batch long enough to
    flush twice raises before the WAL, levels, memtable or counters
    change."""
    lsm = LSMTree(memtable_limit=16)
    lsm.write_batch([(b"a%02d" % i, b"x") for i in range(40)])
    before = _digest(lsm)
    batch = [(b"b%02d" % i, None if i % 7 == 0 else b"y")
             for i in range(40)] + [(b"c", TOMBSTONE)]
    with pytest.raises(ValueError):
        lsm.write_batch(batch)
    assert _digest(lsm) == before
