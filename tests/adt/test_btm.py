"""Tests for the Merkle B+ tree (FalconDB-style authenticated index)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.adt.btm import MerkleBTree
from repro.crypto.hashing import NULL_HASH


def _populated(n: int = 500, order: int = 8) -> MerkleBTree:
    tree = MerkleBTree(order=order)
    for i in range(n):
        tree.put(b"user%06d" % i, b"value-%d" % i)
    tree.commit()
    return tree


def test_imports_before_the_storage_package():
    """adt.btm builds on storage.btree while storage.engine builds on
    adt.btm: a fresh interpreter must import either side first."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("repro.adt.btm", "repro.storage"):
        subprocess.run([sys.executable, "-c", f"import {module}"],
                       env=env, check=True)


def test_requires_min_order():
    with pytest.raises(ValueError):
        MerkleBTree(order=2)


def test_put_get_overwrite_and_len():
    tree = MerkleBTree(order=4)
    tree.put(b"b", b"1")
    tree.put(b"a", b"2")
    tree.put(b"b", b"3")
    assert tree.get(b"b") == b"3"
    assert tree.get(b"a") == b"2"
    assert tree.get(b"zz") is None
    assert len(tree) == 2
    assert b"a" in tree and b"zz" not in tree


def test_non_bytes_rejected():
    tree = MerkleBTree()
    with pytest.raises(TypeError):
        tree.put("str-key", b"v")


def test_delete_refused():
    tree = _populated(50, order=4)
    with pytest.raises(NotImplementedError):
        tree.delete(b"user%06d" % 7)
    assert tree.get(b"user%06d" % 7) == b"value-7"


def test_items_sorted_across_splits():
    tree = _populated(300, order=4)   # small order forces deep splits
    keys = [k for k, _ in tree.items()]
    assert keys == sorted(keys)
    assert len(keys) == 300


def test_commit_hashes_only_dirty_paths():
    tree = _populated(500, order=8)
    baseline = tree.hashes_computed
    tree.put(b"user%06d" % 42, b"updated")
    tree.commit()
    # one leaf-to-root path re-hashed, not the whole tree
    assert 0 < tree.hashes_computed - baseline < tree.node_count()


def test_root_deterministic_and_order_insensitive():
    a = MerkleBTree(order=6)
    b = MerkleBTree(order=6)
    items = [(b"k%04d" % i, b"v%d" % i) for i in range(200)]
    for k, v in items:
        a.put(k, v)
    for k, v in reversed(items):
        b.put(k, v)
    # same final contents but different insertion order: values agree
    assert dict(a.items()) == dict(b.items())
    # the same stream re-applied lands on the byte-identical root
    c = MerkleBTree(order=6)
    for k, v in items:
        c.put(k, v)
    assert a.commit() == c.commit()
    assert a.root != NULL_HASH


def test_root_changes_on_update():
    tree = _populated(100)
    before = tree.root
    tree.put(b"user%06d" % 7, b"tampered")
    assert tree.commit() != before


def test_prove_verify_roundtrip():
    tree = _populated(500, order=8)
    root = tree.root
    for i in (0, 42, 255, 499):
        key, value = b"user%06d" % i, b"value-%d" % i
        proof = tree.prove(key)
        assert MerkleBTree.verify_proof(key, value, proof, root)


def test_proof_rejects_wrong_value_key_and_root():
    tree = _populated(500, order=8)
    root = tree.root
    key = b"user%06d" % 42
    proof = tree.prove(key)
    assert not MerkleBTree.verify_proof(key, b"forged", proof, root)
    assert not MerkleBTree.verify_proof(b"user999999", b"v", proof, root)
    assert not MerkleBTree.verify_proof(key, b"value-42", proof,
                                        NULL_HASH)
    # a tampered sibling digest breaks the chain
    if proof["groups"]:
        group, idx = proof["groups"][0]
        group[(idx + 1) % len(group)] = NULL_HASH
        assert not MerkleBTree.verify_proof(key, b"value-42", proof, root)


def test_proof_from_stale_root_rejected():
    tree = _populated(200, order=8)
    old_root = tree.root
    tree.put(b"user%06d" % 3, b"new-value")
    tree.commit()
    proof = tree.prove(b"user%06d" % 3)
    assert MerkleBTree.verify_proof(b"user%06d" % 3, b"new-value",
                                    proof, tree.root)
    assert not MerkleBTree.verify_proof(b"user%06d" % 3, b"new-value",
                                        proof, old_root)


def test_total_bytes_and_overhead_accounting():
    tree = _populated(100)
    raw = sum(len(k) + len(v) for k, v in tree.items())
    assert tree.total_bytes() > raw          # digests + length prefixes
    assert tree.node_count() >= 1


#: (root digest, cumulative hashes_computed) after each of five commits of
#: the seeded stream in ``test_seeded_stream_pinned``, then the final
#: (node_count(), total_bytes(), len()).
STREAM_COMMITS = [
    ("126dffd1d1dee45d8975ba13ded61e80f51889de933c1c2bc05ee785d4f08b78", 163),
    ("b68bd4e982a31657996e72fc3e8015526c5ceea7ebaed42af8962b3c7039a37b", 422),
    ("f80c4dcf6b7ced64ae2c8e28ab66787ac1fdd3d19ff827f7d0924660220b03e2", 746),
    ("ba6b7683200c4a3b8d206b9b6939542fd8a4c97e174df36808b74b1d0aed1680", 1095),
    ("d21f1103aed14f78af90f0306a46bea69c787ccc11f7c7832754e56d6c70354c", 1452),
]
STREAM_SHAPE = (444, 47229, 980)


def test_seeded_stream_pinned():
    """2,000 random puts over 1,200 keys (about half overwrites) in five
    commits on an odd small order: every split, overwrite and dirty-path
    fold shows in the roots, the hash count or the node/byte totals."""
    rng = random.Random(11)
    tree = MerkleBTree(order=5)
    commits = []
    for _batch in range(5):
        for _ in range(400):
            key = b"k%05d" % rng.randrange(1200)
            tree.put(key, b"v" * rng.randrange(1, 40))
        commits.append((tree.commit().hex(), tree.hashes_computed))
    assert commits == STREAM_COMMITS
    assert (tree.node_count(), tree.total_bytes(), len(tree)) == STREAM_SHAPE
