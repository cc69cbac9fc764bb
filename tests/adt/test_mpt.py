"""Tests for the Merkle Patricia Trie."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.adt.mpt as mpt
from repro.adt.mpt import (_LEAF, EMPTY_ROOT, MerklePatriciaTrie, NodeStore,
                           verify_proof)


def key_of(i: int) -> bytes:
    return hashlib.md5(f"key{i}".encode()).digest()


def test_empty_get():
    trie = MerklePatriciaTrie()
    assert trie.get(b"\x01\x02") is None
    assert trie.root == EMPTY_ROOT


def test_put_get_single():
    trie = MerklePatriciaTrie()
    trie.put(b"\xab\xcd", b"value")
    assert trie.get(b"\xab\xcd") == b"value"
    assert trie.get(b"\xab\xce") is None


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        MerklePatriciaTrie().put(b"", b"v")


def test_overwrite_updates_value_and_root():
    trie = MerklePatriciaTrie()
    r1 = trie.put(b"\x01", b"a")
    r2 = trie.put(b"\x01", b"b")
    assert trie.get(b"\x01") == b"b"
    assert r1 != r2


def test_shared_prefix_keys():
    trie = MerklePatriciaTrie()
    trie.put(b"\x12\x34\x56", b"one")
    trie.put(b"\x12\x34\x78", b"two")
    trie.put(b"\x12\x99\x00", b"three")
    assert trie.get(b"\x12\x34\x56") == b"one"
    assert trie.get(b"\x12\x34\x78") == b"two"
    assert trie.get(b"\x12\x99\x00") == b"three"


def test_key_that_is_prefix_of_another():
    trie = MerklePatriciaTrie()
    trie.put(b"\x12", b"short")
    trie.put(b"\x12\x34", b"long")
    assert trie.get(b"\x12") == b"short"
    assert trie.get(b"\x12\x34") == b"long"


def test_root_is_order_independent():
    items = [(key_of(i), f"v{i}".encode()) for i in range(200)]
    t1 = MerklePatriciaTrie()
    for k, v in items:
        t1.put(k, v)
    t2 = MerklePatriciaTrie()
    for k, v in reversed(items):
        t2.put(k, v)
    assert t1.root == t2.root


def test_root_depends_on_content():
    t1 = MerklePatriciaTrie()
    t1.put(b"\x01", b"a")
    t2 = MerklePatriciaTrie()
    t2.put(b"\x01", b"b")
    assert t1.root != t2.root


def test_proof_verifies_and_rejects():
    trie = MerklePatriciaTrie()
    for i in range(100):
        trie.put(key_of(i), f"v{i}".encode())
    proof = trie.prove(key_of(42))
    assert verify_proof(trie.root, key_of(42), b"v42", proof)
    assert not verify_proof(trie.root, key_of(42), b"WRONG", proof)
    assert not verify_proof(trie.root, key_of(43), b"v42", proof)
    # proof against a stale root fails
    old_root = trie.root
    trie.put(key_of(42), b"new")
    fresh_proof = trie.prove(key_of(42))
    assert verify_proof(trie.root, key_of(42), b"new", fresh_proof)
    assert not verify_proof(old_root, key_of(42), b"new", fresh_proof)


def test_empty_proof_rejected():
    assert not verify_proof(EMPTY_ROOT, b"\x01", b"v", [])


def test_stale_versions_accumulate_in_store():
    """Content-addressed storage retains rewritten paths (Fig. 13 driver)."""
    trie = MerklePatriciaTrie()
    for i in range(50):
        trie.put(key_of(i), b"x" * 10)
    nodes_after_insert = len(trie.store)
    for i in range(50):
        trie.put(key_of(i), b"y" * 10)
    assert len(trie.store) > nodes_after_insert


def test_store_bytes_include_hash_keys():
    store = NodeStore()
    leaf = (_LEAF, b"\x01\x02", b"value")
    digest = store.put(leaf)
    assert store.get(digest) == leaf
    # an equal node is another put but not another stored node
    assert store.put((_LEAF, b"\x01\x02", b"value")) == digest
    assert store.puts == 2
    assert len(store) == 1
    # 32-byte key + kind 1 + path length 2 + path 2 + value length 4 + value 5
    assert store.total_bytes() == 32 + 14


def test_historical_root_remains_readable():
    """Old roots stay queryable — the blockchain history property."""
    trie = MerklePatriciaTrie()
    trie.put(b"\x01", b"old")
    old_root = trie.root
    trie.put(b"\x01", b"new")
    historical = MerklePatriciaTrie(store=trie.store, root=old_root)
    assert historical.get(b"\x01") == b"old"
    assert trie.get(b"\x01") == b"new"


def test_historical_trie_shares_the_store():
    """A trie at an old root over the same store reads every value and
    adds no nodes: content addressing makes stored nodes valid for any
    root."""
    store = NodeStore()
    writer = MerklePatriciaTrie(store)
    for i in range(50):
        writer.put(b"user%04d" % i, b"v%d" % i)
    nodes = len(store)
    reader = MerklePatriciaTrie(store, root=writer.root)
    for i in range(50):
        assert reader.get(b"user%04d" % i) == b"v%d" % i
    assert len(store) == nodes


def test_tries_never_decode_stored_nodes(monkeypatch):
    """The store hands out decoded nodes; only ``verify_proof`` decodes,
    because it checks untrusted bytes."""
    def refuse(blob):
        raise AssertionError("a trie decoded a stored node")

    monkeypatch.setattr(mpt, "_decode", refuse)
    fresh = MerklePatriciaTrie()
    for i in range(40):
        fresh.put(key_of(i), b"v%d" % i)
    old_root = fresh.root
    historical = MerklePatriciaTrie(store=fresh.store, root=old_root)
    for trie in (fresh, historical):
        trie.put(key_of(0), b"put")
        for i in range(40, 60):
            trie.stage(key_of(i), b"staged")
        trie.commit()
        assert trie.get(key_of(0)) == b"put"
        assert trie.get(key_of(41)) == b"staged"
        assert trie.get(key_of(7)) == b"v7"
        assert trie.prove(key_of(7))
    assert MerklePatriciaTrie(store=fresh.store, root=old_root).get(
        key_of(0)) == b"v0"

    monkeypatch.undo()
    proof = fresh.prove(key_of(7))
    assert verify_proof(fresh.root, key_of(7), b"v7", proof)
    tampered = proof[:-1] + [proof[-1][:-1] + b"X"]
    assert not verify_proof(fresh.root, key_of(7), b"v7", tampered)


def test_store_byte_total_matches_stored_encodings():
    """The running byte total equals a recount over the stored nodes after
    per-write inserts, overwrites and a batched commit."""
    trie = MerklePatriciaTrie()
    for i in range(60):
        trie.put(key_of(i), b"a%d" % i)
    for i in range(0, 60, 3):
        trie.put(key_of(i), b"b%d" % i)
    for i in range(40, 90):
        trie.stage(key_of(i), b"c%d" % i)
    trie.commit()
    store = trie.store
    assert store.total_bytes() == sum(
        32 + len(mpt._encode(node)) for node in store._nodes.values())
    # every node hash the trie counts is one put into the store
    assert store.puts == trie.hashes_computed


def test_equal_content_adds_nothing_to_a_shared_store():
    """A second trie writing the same keys and values into the store
    reaches the same root and adds no nodes and no bytes."""
    store = NodeStore()
    first = MerklePatriciaTrie(store)
    for i in range(40):
        first.put(key_of(i), b"v%d" % i)
    nodes, size = len(store), store.total_bytes()
    second = MerklePatriciaTrie(store)
    for i in range(40):
        second.put(key_of(i), b"v%d" % i)
    assert second.root == first.root
    assert second.hashes_computed == first.hashes_computed
    assert (len(store), store.total_bytes()) == (nodes, size)


def test_roots_do_not_depend_on_store_contents():
    """What the store already holds never leaks into digests or hash
    counts: a trie on a store full of another trie's nodes matches a
    trie on a fresh store, per write and batched."""
    crowded = NodeStore()
    other = MerklePatriciaTrie(crowded)
    for i in range(100):
        other.put(b"other%04d" % i, b"x")
    keys = [b"user%06d" % i for i in range(120)]
    fresh = MerklePatriciaTrie()
    shared = MerklePatriciaTrie(crowded)
    for i, key in enumerate(keys):
        assert fresh.put(key, b"v%d" % i) == shared.put(key, b"v%d" % i)
    assert fresh.hashes_computed == shared.hashes_computed
    batched = MerklePatriciaTrie(crowded)
    for i, key in enumerate(keys):
        batched.stage(key, b"v%d" % i)
    assert batched.commit() == fresh.root


def test_batched_commit_shares_store_with_per_write():
    """Nodes a batched commit stores serve a per-write trie at its root,
    and both paths agree on the next root."""
    store = NodeStore()
    batched = MerklePatriciaTrie(store)
    for i in range(20):
        batched.stage(b"user%04d" % i, b"v%d" % i)
    root = batched.commit()
    reader = MerklePatriciaTrie(store, root=root)
    for i in range(20):
        assert reader.get(b"user%04d" % i) == b"v%d" % i
    reader.put(b"user0007", b"w7")
    batched.stage(b"user0007", b"w7")
    assert batched.commit() == reader.root


def test_depth_grows_with_population():
    trie = MerklePatriciaTrie()
    trie.put(key_of(0), b"v")
    shallow = trie.depth(key_of(0))
    for i in range(1, 500):
        trie.put(key_of(i), b"v")
    assert trie.depth(key_of(0)) >= shallow


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.binary(min_size=1, max_size=8),
                       st.binary(min_size=0, max_size=32),
                       min_size=1, max_size=40))
def test_mpt_matches_dict_model(model):
    trie = MerklePatriciaTrie()
    for k, v in model.items():
        trie.put(k, v)
    for k, v in model.items():
        assert trie.get(k) == v


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=6),
                          st.binary(min_size=0, max_size=8)),
                min_size=1, max_size=30))
def test_mpt_root_reflects_final_state_only(items):
    """Two tries that end at the same map have the same root, regardless
    of intermediate overwrites."""
    final = {}
    trie1 = MerklePatriciaTrie()
    for k, v in items:
        trie1.put(k, v)
        final[k] = v
    trie2 = MerklePatriciaTrie()
    for k, v in sorted(final.items()):
        trie2.put(k, v)
    assert trie1.root == trie2.root


@pytest.mark.parametrize("node", [
    (mpt._LEAF, b"\x01\x0f\x00", b"value"),
    (mpt._EXTENSION, b"\x03\x04", hashlib.sha256(b"child").digest()),
    (mpt._LEAF, b"", b"value"),
    (mpt._BRANCH, [hashlib.sha256(b"%d" % i).digest() if i % 3 else b""
                   for i in range(16)], b""),
])
def test_node_encoding_round_trips(node):
    assert mpt._decode(mpt._encode(node)) == node


def test_lengths_past_the_prefix_tables():
    """A path or value too long for the precomputed length prefixes is
    encoded the same length-prefixed way, stored and proven."""
    key, value = bytes(range(256)) * 3, b"v" * 5000
    leaf = (mpt._LEAF, mpt._to_nibbles(key), value)
    assert mpt._decode(mpt._encode(leaf)) == leaf
    store = NodeStore()
    store.put(leaf)
    assert store.total_bytes() == 32 + 1 + 2 + 1536 + 4 + 5000
    trie = MerklePatriciaTrie()
    trie.put(key, value)
    trie.put(key[:-1], b"w" * 2000)
    assert trie.get(key) == value
    assert verify_proof(trie.root, key, value, trie.prove(key))


def test_proofs_for_prefix_keys_and_empty_values():
    """A key that is a strict prefix of another ends at a branch value; an
    empty value is a value.  Both prove, and both reject a wrong value."""
    trie = MerklePatriciaTrie()
    trie.put(b"\x12", b"short")
    trie.put(b"\x12\x34", b"long")
    trie.put(b"\x12\x35", b"")
    for key, value in ((b"\x12", b"short"), (b"\x12\x35", b"")):
        proof = trie.prove(key)
        assert verify_proof(trie.root, key, value, proof)
        assert not verify_proof(trie.root, key, b"wrong", proof)
    assert not verify_proof(trie.root, b"\x12", b"", trie.prove(b"\x12"))
