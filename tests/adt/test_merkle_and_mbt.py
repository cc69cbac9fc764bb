"""Tests for the Merkle Bucket Tree."""

import pytest

from repro.adt import MerkleBucketTree
from repro.crypto.hashing import NULL_HASH


def test_mbt_parameters_validated():
    with pytest.raises(ValueError):
        MerkleBucketTree(num_buckets=0)
    with pytest.raises(ValueError):
        MerkleBucketTree(fanout=1)


def test_mbt_depth_matches_paper_formula():
    """1000 buckets, fan-out 4 -> depth ceil(log4 1000) = 5."""
    assert MerkleBucketTree(num_buckets=1000, fanout=4).depth == 5


def test_mbt_put_get_commit():
    mbt = MerkleBucketTree(num_buckets=16, fanout=4)
    mbt.put(b"k1", b"v1")
    root1 = mbt.commit()
    assert mbt.get(b"k1") == b"v1"
    mbt.put(b"k1", b"v2")
    root2 = mbt.commit()
    assert root1 != root2


def test_mbt_type_check():
    mbt = MerkleBucketTree(num_buckets=4)
    with pytest.raises(TypeError):
        mbt.put("str", b"v")


def test_mbt_delete():
    mbt = MerkleBucketTree(num_buckets=8)
    mbt.put(b"k", b"v")
    root_with = mbt.commit()
    mbt.delete(b"k")
    root_without = mbt.commit()
    assert mbt.get(b"k") is None
    assert root_with != root_without
    assert len(mbt) == 0


def test_mbt_root_independent_of_insert_order():
    items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(100)]
    a = MerkleBucketTree(num_buckets=16)
    for k, v in items:
        a.put(k, v)
    a.commit()
    b = MerkleBucketTree(num_buckets=16)
    for k, v in reversed(items):
        b.put(k, v)
    b.commit()
    assert a.root == b.root


def test_mbt_proof_verifies_and_rejects():
    mbt = MerkleBucketTree(num_buckets=32, fanout=4)
    for i in range(200):
        mbt.put(f"key{i}".encode(), f"val{i}".encode())
    root = mbt.commit()
    proof = mbt.prove(b"key7")
    assert mbt.verify_proof(b"key7", b"val7", proof, root)
    assert not mbt.verify_proof(b"key7", b"forged", proof, root)
    assert not mbt.verify_proof(b"key7", b"val7", proof, b"\x00" * 32)


def test_mbt_fixed_scale_overhead_is_small_constant():
    """The Fig. 13 contrast: MBT overhead stays ~tens of bytes/record."""
    mbt = MerkleBucketTree(num_buckets=1000, fanout=4)
    import hashlib
    for i in range(5000):
        mbt.put(hashlib.md5(f"r{i}".encode()).digest(), b"x" * 10)
    mbt.commit()
    overhead = mbt.overhead_per_record(10)
    assert 10 < overhead < 120


def test_mbt_incremental_commit_equals_batch_commit():
    a = MerkleBucketTree(num_buckets=16)
    b = MerkleBucketTree(num_buckets=16)
    for i in range(50):
        a.put(f"k{i}".encode(), b"v")
        a.commit()  # commit after each write
        b.put(f"k{i}".encode(), b"v")
    b.commit()      # one commit at the end
    assert a.root == b.root


def test_mbt_single_bucket_degenerate():
    mbt = MerkleBucketTree(num_buckets=1, fanout=4)
    mbt.put(b"a", b"1")
    root = mbt.commit()
    assert root != NULL_HASH
    assert mbt.depth == 0
