"""Batched MPT commits: root equivalence with the per-write path, and
literal anchors for both write paths."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adt.mpt import EMPTY_ROOT, MerklePatriciaTrie, verify_proof
from repro.workloads.smallbank import SmallbankConfig, SmallbankWorkload


def key_of(i: int) -> bytes:
    return hashlib.md5(f"key{i}".encode()).digest()


# -- literal anchors -----------------------------------------------------------
#
# Per seeded key set: the hex root both write paths must reach, then
# (len(store), store.total_bytes(), hashes_computed) for per-write
# ``put()`` and for ``stage``/``commit`` in blocks of 100.  Recorded from
# the separate per-write insert routine ``put()`` had before it was folded
# into the staged one (the two agreed on every value).  The tests further
# down that compare ``put()`` with ``commit()`` check that batching
# commutes; these pin the trie itself.  ``_anchor`` also reads
# ``store.puts``: on a trie with a store of its own every hash is one put,
# so the put count equals the hash count.


def _fig13_items():
    """fig13's MPT inputs at ``records=1000, size=100``."""
    rng = random.Random(100)
    return [(hashlib.md5(f"rec{i}".encode()).digest(), rng.randbytes(100))
            for i in range(1000)]


def _colliding_items():
    """Short keys over five bytes: prefixes, overwrites, empty values."""
    rng = random.Random(21)
    return [(bytes(rng.choice(b"\x00\x01\x10\x11\xab")
                   for _ in range(rng.randint(1, 4))),
             rng.randbytes(rng.choice((0, 1, 5, 40))))
            for _ in range(600)]


def _ledger_stream_items():
    """The write stream ``benchmarks/ledger/micro.py::mpt`` stages."""
    rng = random.Random(7)
    keys = [b"user%012d" % rng.randrange(10_000) for _ in range(4_000)]
    return [(key, b"value-%d" % i) for i, key in enumerate(keys, 1)]


ANCHORS = {
    "fig13": (_fig13_items,
              "f9d22b3f4a157fdfdc717166cdef326f"
              "43f5abfa38b8e16f58aa99c5ccf6988d",
              (4182, 1393791, 4182), (2168, 413934, 2168)),
    "colliding": (_colliding_items,
                  "43c98a31eae5bdaac316a0cf95e1aaa5"
                  "de09450efb7033754b9df738509c52ca",
                  (3217, 437154, 3416), (799, 88116, 868)),
    "ledger-stream": (_ledger_stream_items,
                      "a71d46cda8a094e3c0886ac6b5d1505a"
                      "51c63523ac1aa39f9d25d7bb86b15493",
                      (34608, 6208102, 34608), (16313, 2093163, 16313)),
}


def _anchor(trie):
    return (trie.root.hex(), len(trie.store), trie.store.total_bytes(),
            trie.hashes_computed, trie.store.puts)


def _with_puts(counts):
    """An anchor's counts plus ``store.puts``, equal to its hash count."""
    return (*counts, counts[-1])


@pytest.mark.parametrize("name", sorted(ANCHORS))
def test_literal_anchors(name):
    make_items, root, per_write_counts, block_counts = ANCHORS[name]
    items = make_items()
    per_write = MerklePatriciaTrie()
    for k, v in items:
        per_write.put(k, v)
    assert _anchor(per_write) == (root, *_with_puts(per_write_counts))
    batched = MerklePatriciaTrie()
    for i, (k, v) in enumerate(items, 1):
        batched.stage(k, v)
        if i % 100 == 0:
            batched.commit()
    batched.commit()
    assert _anchor(batched) == (root, *_with_puts(block_counts))


def _quorum_blocks():
    """A quorum-shaped commit stream: a genesis of SmallBank accounts onto
    an empty trie, then 21 skewed blocks onto the populated one.  Blocks
    carry same-value overwrites, a key that is a strict prefix of stored
    keys (one with an empty value) and a key a stored key is a prefix of."""
    accounts = 300
    genesis = {}
    for i in range(accounts):
        genesis[b"checking%09d" % i] = b"%016d" % 10_000
        genesis[b"savings%09d" % i] = b"%016d" % 10_000
    rng = random.Random(32)
    blocks = []
    for b in range(21):
        block = {}
        for _ in range(rng.randint(5, 40)):
            kind = rng.choice((b"checking", b"savings"))
            customer = min(int(rng.paretovariate(1.2)) - 1, accounts - 1)
            block[kind + b"%09d" % customer] = b"%016d" % rng.randrange(20_000)
        if b % 4 == 1:
            for i in rng.sample(range(accounts), 5):
                block[b"savings%09d" % i] = b"%016d" % 10_000
        blocks.append(block)
    blocks[5][b"checking00000001"] = b"prefix"
    blocks[11][b"savings0000000"] = b""
    blocks[17][b"checking000000001x"] = b"longer"
    return [genesis] + blocks


# (root, len(store), total_bytes(), hashes_computed) after each commit of
# ``_quorum_blocks``; the genesis values are equal, so its leaves dedup.
QUORUM_ANCHORS = [
    ("c3bcd64f8aac0a6a8ef33273042f6f6253c4b9fd0fd32deffcef39364a55dd2d",
     9, 1459, 737),
    ("ad2e2b62c59bf9c6d529292bf2373c402dff5b577d17e4e1fee0744c47c47485",
     29, 4674, 757),
    ("13a93b1ed7ad85f6c20fdc19796768fe6933f7cd1c1d6eb6e89e5632a24159e1",
     48, 7834, 795),
    ("61cd279664321e52ddc818487f6a5ce211d853682da3c8a48373de682286c243",
     72, 11269, 819),
    ("c514e88cfcee7d29794bcb6d0848bcff662d0ff26b55a4c3681528b3da942efa",
     96, 14704, 843),
    ("4803d39927c85aa67df28d65f6a9750ce3d850a4865b41a278e2ae05f7560ba7",
     123, 18652, 870),
    ("8351ae23db53080ca0b922b782dbbb3a933d8a47a77f4b83648f70e911ec0554",
     149, 22581, 909),
    ("47103b982a1398087c58ee9790785a6d94dfc7aeb6ac48d92319e7274ac8fa0d",
     172, 25613, 932),
    ("42dd0a8274d1cbbbd443616c889d84f6292b056832faa91047e59d8b4c56788f",
     195, 29377, 955),
    ("35e3b1a887430327a0dd42a4047260232b3274aeb592745d1bf4e15c95490c86",
     216, 32299, 976),
    ("e1ed1e4571792a4389ec445b14cd45a299962ea13e065ef6a5c5a187cb3e8f33",
     238, 35660, 1011),
    ("183e519fdbd9f3a4fc5913fb32a60dc44bcc0a8ade452b91dddee5e3cb24242b",
     258, 38527, 1031),
    ("ad7c20ff7b120e6d61013cbd680e8a2bd6dffe5398dfb93a55aab5f6827d47bd",
     280, 41534, 1053),
    ("33fb37a310a8ebe0ed5bd436f66d2ad185008e6845f5d1e9fa8b820d63b9c6c2",
     301, 44486, 1074),
    ("b74bc98c43427ec423f12acdf23822973322a183b1947dfa73deb15806e44483",
     320, 47712, 1112),
    ("d4c66840ec7a5a2e4ce9c7bd32df2ed2ae57b70c37124c32767f08545abfba19",
     337, 50444, 1129),
    ("a671de202c62aa249d7096d83c5e2a013be694ee04a77ebc4afaf34f9337106c",
     358, 53396, 1150),
    ("3b08fb66a784cbc70917070cf993ed4cde123d2206803326908a15d662d57ac0",
     391, 58052, 1183),
    ("978e41bd4b6b434cffb2e4d53efd91e4356b54eb27a249136f258d1d5989e61e",
     411, 61003, 1220),
    ("1463c95f0a84300a0c3158ebeb89f18e8cac10057eaa76e51740859e8ec1859a",
     435, 64531, 1244),
    ("b7f2345ecbf974ce0269e32966eec4666f2cf3dc4afc87986315e03669b17d52",
     468, 69250, 1277),
    ("fdaae7ff8007dc8191dda47ad754e2763f06fb889efc3e0807eaea9b58421b3e",
     495, 72979, 1304),
]


def test_quorum_commit_stream_anchors():
    trie = MerklePatriciaTrie()
    seen = []
    for block in _quorum_blocks():
        for k, v in block.items():
            trie.stage(k, v)
        trie.commit()
        seen.append(_anchor(trie))
    assert seen == [_with_puts(anchor) for anchor in QUORUM_ANCHORS]
    assert trie.get(b"checking00000001") == b"prefix"
    assert trie.get(b"savings0000000") == b""
    assert trie.get(b"checking000000001x") == b"longer"


# A SmallBank genesis staged and committed once, as quorum's load does:
# 40,000 keys whose values are all equal, so equal leaves and equal
# branches dedupe and the store keeps 13 nodes of 48,893 puts.
SMALLBANK_LOAD_ANCHOR = (
    "4da3bbbcf2a2370966baa6c9a578a0f7a644ae66a524d7aa3fcdadfd37d6556a",
    13, 2327, 48893, 48893)


def test_smallbank_load_anchor():
    records = SmallbankWorkload(
        SmallbankConfig(num_accounts=20_000, seed=8)).initial_records()
    trie = MerklePatriciaTrie()
    for key, value in records.items():
        trie.stage(key.encode(), value)
    trie.commit()
    assert _anchor(trie) == SMALLBANK_LOAD_ANCHOR


def test_fig13_measures_the_anchored_trie():
    """fig13's seeded run builds exactly the ``fig13`` anchor's per-write
    trie: same node count, same bytes."""
    from repro.bench.experiments import fig13_ads_overhead

    nodes, total_bytes, _hashes = ANCHORS["fig13"][2]
    measured = fig13_ads_overhead(record_sizes=(100,),
                                  records=1000)["measured"]
    assert measured["mpt_nodes"][100] == nodes
    assert measured["mpt"][100] == (total_bytes - 1000 * 100) / 1000


def test_stage_commit_single_key():
    trie = MerklePatriciaTrie()
    trie.stage(b"\xab\xcd", b"value")
    assert trie.staged == 1
    root = trie.commit()
    assert trie.staged == 0
    assert root == trie.root != EMPTY_ROOT
    assert trie.get(b"\xab\xcd") == b"value"


def test_empty_commit_is_noop():
    trie = MerklePatriciaTrie()
    assert trie.commit() == EMPTY_ROOT
    trie.put(b"\x01", b"a")
    root = trie.root
    assert trie.commit() == root


def test_stage_rejects_empty_key():
    with pytest.raises(ValueError):
        MerklePatriciaTrie().stage(b"", b"v")


def test_staged_value_visible_before_commit():
    trie = MerklePatriciaTrie()
    trie.put(b"\x01", b"committed")
    trie.stage(b"\x01", b"staged")
    trie.stage(b"\x02", b"fresh")
    assert trie.get(b"\x01") == b"staged"
    assert trie.get(b"\x02") == b"fresh"
    assert trie.get(b"\x03") is None


def test_last_staged_write_wins():
    trie = MerklePatriciaTrie()
    trie.stage(b"\x01", b"first")
    trie.stage(b"\x01", b"second")
    trie.commit()
    assert trie.get(b"\x01") == b"second"

    reference = MerklePatriciaTrie()
    reference.put(b"\x01", b"second")
    assert trie.root == reference.root


def test_batched_root_matches_per_write_sequence():
    items = [(key_of(i), f"v{i}".encode()) for i in range(300)]
    per_write = MerklePatriciaTrie()
    for k, v in items:
        per_write.put(k, v)
    batched = MerklePatriciaTrie()
    for k, v in items:
        batched.stage(k, v)
    batched.commit()
    assert per_write.root == batched.root


def test_multi_block_commits_match_per_write():
    per_write = MerklePatriciaTrie()
    batched = MerklePatriciaTrie()
    for block in range(10):
        for i in range(50):
            key = key_of(block * 50 + i)
            value = b"blk%d-%d" % (block, i)
            per_write.put(key, value)
            batched.stage(key, value)
        assert batched.commit() == per_write.root


def test_batched_commit_hashes_each_path_once():
    """A block of prefix-sharing writes must hash far fewer nodes than
    the per-write path (the whole point of batching)."""
    keys = [b"user%012d" % i for i in range(500)]
    per_write = MerklePatriciaTrie()
    for k in keys:
        per_write.put(k, b"v")
    batched = MerklePatriciaTrie()
    for k in keys:
        batched.stage(k, b"v")
    batched.commit()
    assert batched.root == per_write.root
    assert batched.hashes_computed < per_write.hashes_computed / 2


def test_batched_store_skips_intermediate_versions():
    keys = [key_of(i) for i in range(100)]
    per_write = MerklePatriciaTrie()
    for k in keys:
        per_write.put(k, b"v")
    batched = MerklePatriciaTrie()
    for k in keys:
        batched.stage(k, b"v")
    batched.commit()
    assert len(batched.store) < len(per_write.store)


def test_proofs_verify_after_batched_commit():
    trie = MerklePatriciaTrie()
    for i in range(100):
        trie.stage(key_of(i), f"v{i}".encode())
    trie.commit()
    proof = trie.prove(key_of(42))
    assert verify_proof(trie.root, key_of(42), b"v42", proof)


def test_put_supersedes_older_staged_write():
    """A put() after a stage() of the same key must win (it is newer)."""
    trie = MerklePatriciaTrie()
    trie.stage(b"\x01", b"staged-old")
    trie.put(b"\x01", b"put-new")
    assert trie.get(b"\x01") == b"put-new"
    trie.commit()  # must NOT resurrect the stale staged value
    assert trie.get(b"\x01") == b"put-new"
    reference = MerklePatriciaTrie()
    reference.put(b"\x01", b"put-new")
    assert trie.root == reference.root


def test_mixed_put_and_stage_interleave():
    """put() between commits must compose with staged batches."""
    reference = MerklePatriciaTrie()
    mixed = MerklePatriciaTrie()
    reference.put(b"\x01", b"a")
    mixed.put(b"\x01", b"a")
    mixed.stage(b"\x02", b"b")
    mixed.commit()
    reference.put(b"\x02", b"b")
    mixed.put(b"\x03", b"c")
    reference.put(b"\x03", b"c")
    assert mixed.root == reference.root


def test_historical_roots_remain_readable_after_batched_commits():
    trie = MerklePatriciaTrie()
    trie.stage(b"\x01", b"old")
    old_root = trie.commit()
    trie.stage(b"\x01", b"new")
    trie.commit()
    historical = MerklePatriciaTrie(store=trie.store, root=old_root)
    assert historical.get(b"\x01") == b"old"
    assert trie.get(b"\x01") == b"new"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=6),
                          st.binary(min_size=0, max_size=12)),
                min_size=1, max_size=40),
       st.integers(1, 7))
def test_batched_equivalence_randomized(items, block_size):
    """Randomized insert/update sequences, arbitrary block boundaries:
    the batched root must always equal the per-write root."""
    per_write = MerklePatriciaTrie()
    batched = MerklePatriciaTrie()
    for i, (k, v) in enumerate(items):
        per_write.put(k, v)
        batched.stage(k, v)
        if (i + 1) % block_size == 0:
            batched.commit()
    batched.commit()
    assert per_write.root == batched.root
    for k, v in dict(items).items():
        assert batched.get(k) == v


@settings(max_examples=20, deadline=None)
@given(st.dictionaries(st.binary(min_size=1, max_size=8),
                       st.binary(min_size=0, max_size=16),
                       min_size=1, max_size=30))
def test_shared_store_reads_match_writer(model):
    """A second trie over the writer's store, at the writer's root, reads
    every value the writer reads."""
    trie = MerklePatriciaTrie()
    for k, v in model.items():
        trie.put(k, v)
    cold = MerklePatriciaTrie(store=trie.store, root=trie.root)
    for k, v in model.items():
        assert trie.get(k) == v
        assert cold.get(k) == v


def test_commit_loads_each_node_once(monkeypatch):
    """One commit of many prefix-sharing keys onto a populated trie loads
    every node it touches once, and an empty slot not at all: the sorted
    keys share each loaded path."""
    trie = MerklePatriciaTrie()
    for i in range(400):
        trie.stage(b"checking%09d" % i, b"v%d" % i)
    trie.commit()
    for i in range(0, 400, 3):
        trie.stage(b"checking%09d" % i, b"w")
    trie.stage(b"checking00000012", b"prefix")
    for i in range(1000, 1040):
        trie.stage(b"checking%09d" % i, b"new%d" % i)
    loaded = []
    load = MerklePatriciaTrie._load

    def spy(self, digest):
        loaded.append(digest)
        return load(self, digest)

    monkeypatch.setattr(MerklePatriciaTrie, "_load", spy)
    trie.commit()
    assert len(loaded) > 1
    assert len(loaded) == len(set(loaded))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.binary(min_size=1, max_size=5),
                       st.binary(min_size=0, max_size=8),
                       min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_commit_ignores_staging_order(model, rng):
    """Staging one dict in any order commits the same root, store and hash
    count, onto an empty trie and onto a populated one."""
    base = [(bytes([b]) * 2, b"base") for b in (0, 1, 0x10, 0xab)]

    def committed(items):
        trie = MerklePatriciaTrie()
        for block in (base, items):
            for k, v in block:
                trie.stage(k, v)
            trie.commit()
        return _anchor(trie)

    items = list(model.items())
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert committed(items) == committed(shuffled)
    assert committed(items[::-1]) == committed(items)
