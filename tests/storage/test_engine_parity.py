"""Differential suite for the pluggable storage-engine layer.

All six Table 2 engines must agree on get/put/apply_write_set semantics
over a seeded op stream (the swap-a-layer-under-a-transaction-flow gate:
an engine that returns different values would silently break the
serializability/equivalence checks above it), and the authenticated
engines' roots must be deterministic across independent runs.
"""

from __future__ import annotations

import random

import pytest

from repro.core.taxonomy import IndexKind
from repro.crypto.hashing import NULL_HASH
from repro.storage.engine import (CommitResult, ENGINES, engine_for,
                                  parse_index_kind)
from repro.txn.state import VersionedStore

ALL_KINDS = list(IndexKind)


def _seeded_ops(seed: int, n: int = 600, keys: int = 120):
    """A deterministic stream of (op, key, value) covering overwrites."""
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        key = f"user{rng.randrange(keys):06d}"
        if rng.random() < 0.25:
            ops.append(("get", key, None))
        elif rng.random() < 0.3:
            ops.append(("apply", key, b"ws-%d" % i))
        else:
            ops.append(("put", key, b"v-%d" % i))
        if rng.random() < 0.05:
            ops.append(("commit", None, None))
    return ops


def _run_stream(engine, ops):
    """Apply the op stream; return (observed gets, per-commit results)."""
    observed = []
    commits = []
    version = 0
    for op, key, value in ops:
        if op == "put":
            engine.put(key, value)
        elif op == "apply":
            engine.apply_write_set({key: value, key + ":sib": value})
        elif op == "get":
            observed.append((key, engine.get(key)))
        else:
            version += 1
            commits.append(engine.commit(version))
    commits.append(engine.commit(version + 1))
    return observed, commits


def test_registry_covers_every_index_kind():
    assert set(ENGINES) == set(IndexKind)
    for kind in ALL_KINDS:
        assert engine_for(kind).kind is kind
    # config alias strings resolve through the same registry
    assert engine_for("lsm+mpt").kind is IndexKind.LSM_MPT


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name.lower())
def test_engine_agrees_with_dict_model(kind):
    """Every engine must track a plain dict over the seeded op stream."""
    engine = engine_for(kind)
    model: dict[str, bytes] = {}
    for op, key, value in _seeded_ops(seed=7):
        if op == "put":
            engine.put(key, value)
            model[key] = value
        elif op == "apply":
            ws = {key: value, key + ":sib": value}
            engine.apply_write_set(ws)
            model.update(ws)
        elif op == "get":
            assert engine.get(key) == model.get(key), (kind, key)
        else:
            engine.commit(0)
    engine.commit(1)
    for key, value in model.items():
        assert engine.get(key) == value, (kind, key)
    assert engine.get("user-never-written") is None


def test_all_engines_agree_pairwise():
    """The observed read results must be identical across all six."""
    ops = _seeded_ops(seed=23)
    results = {kind: _run_stream(engine_for(kind), ops)[0]
               for kind in ALL_KINDS}
    reference = results[IndexKind.LSM]
    for kind, observed in results.items():
        assert observed == reference, f"{kind} diverged from LSM"


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name.lower())
def test_roots_deterministic_across_runs(kind):
    """Two independent engines fed the same stream land on the same root
    (and the same measured deltas) — the fingerprint-stability property
    the seeded RunResult gates rely on."""
    ops = _seeded_ops(seed=42)

    def totals(engine):
        """(final root, total hashes, total node_ops) over the stream."""
        _observed, commits = _run_stream(engine, ops)
        assert all(isinstance(c, CommitResult) for c in commits)
        return (commits[-1].root,
                sum(c.hashes_computed for c in commits),
                sum(c.node_ops for c in commits))

    (root_a, hashes_a, ops_a) = totals(engine_for(kind))
    (root_b, hashes_b, ops_b) = totals(engine_for(kind))
    assert root_a == root_b
    assert (hashes_a, ops_a) == (hashes_b, ops_b)
    assert ops_a > 0                       # the stream did structural work
    if engine_for(kind).authenticated:
        assert hashes_a > 0
        # a different stream must produce a different root
        other = engine_for(kind)
        _observed, commits = _run_stream(other, _seeded_ops(seed=43))
        assert commits[-1].root != root_a
    else:
        assert root_a == NULL_HASH
        assert hashes_a == 0


def test_commit_reports_the_tree_hash_delta():
    """The shared commit hook reports exactly the hashes the structure
    computed during the commit on authenticated engines, and a null root
    with no hashes on plain ones."""
    for kind in ALL_KINDS:
        engine = engine_for(kind)
        roots = []
        hashes = 0
        for block in range(3):
            for i in range(30):
                engine.put(f"user{block:02d}{i:04d}", b"v%d" % i)
            before = engine.tree.hashes_computed if engine.authenticated else 0
            result = engine.commit(block)
            assert result.node_ops > 0, kind
            if engine.authenticated:
                assert (result.hashes_computed
                        == engine.tree.hashes_computed - before), kind
                hashes += result.hashes_computed
            else:
                assert (result.root, result.hashes_computed) == (NULL_HASH, 0)
            roots.append(result.root)
        if engine.authenticated:
            assert hashes > 0, kind
            assert len(set(roots)) == 3, kind


def test_authenticated_flags_match_taxonomy():
    """The engine's authenticated bit mirrors Table 2's red/blue marking."""
    for kind in ALL_KINDS:
        engine = engine_for(kind)
        expected = kind in (IndexKind.LSM_MPT, IndexKind.LSM_MBT,
                            IndexKind.BTREE_MERKLE)
        assert engine.authenticated is expected


def test_unknown_extras_key_rejected():
    """A typo'd extras key must raise, not silently run the default.

    The systems layer owns that check (tests/systems/
    test_system_edge_cases.py has the full table); ``engine_from_config``
    itself is a pure factory over the keys it reads.
    """
    from repro.sim.kernel import Environment
    from repro.storage.engine import engine_from_config
    from repro.systems import QuorumSystem, SystemConfig
    with pytest.raises(ValueError, match="indx"):
        QuorumSystem(Environment(),
                     SystemConfig(extras={"indx": "lsm+mpt"}))
    assert engine_from_config({"index": "lsm"}).kind is IndexKind.LSM
    assert engine_from_config({}) is None
    assert engine_from_config({}, default="btree").kind is IndexKind.BTREE


def test_parse_index_kind_aliases_and_errors():
    assert parse_index_kind("lsm+mpt") is IndexKind.LSM_MPT
    assert parse_index_kind("b-tree") is IndexKind.BTREE
    assert parse_index_kind("lsm tree") is IndexKind.LSM
    assert parse_index_kind(IndexKind.SKIP_LIST) is IndexKind.SKIP_LIST
    with pytest.raises(ValueError):
        parse_index_kind("quantum-index")


def test_versioned_store_facade_mirrors_engine():
    """The facade keeps versions itself and mirrors values byte-for-byte."""
    engine = engine_for(IndexKind.LSM_MPT)
    store = VersionedStore(engine=engine)
    store.put("a", b"1", 1)
    store.apply_write_set({"b": b"2", "c": b"3"}, 2)
    assert store.get("a") == (b"1", 1)
    assert store.version("c") == 2
    result = store.commit(2)
    assert result.root != NULL_HASH
    for key in store.keys():
        assert engine.get(key) == store.get(key)[0]
    # engine-less store still commits as a no-op
    assert VersionedStore().commit(1) is None


def test_wal_journals_and_checkpoints():
    """extras["wal"]-style engines journal every write and group-commit."""
    engine = engine_for(IndexKind.BTREE, wal=True)
    for i in range(50):
        engine.put(f"k{i}", b"v%d" % i)
    assert engine.wal.appended == 50
    assert engine.wal.synced_to == 0          # nothing durable yet
    engine.commit(1)
    assert engine.wal.synced_to == engine.wal.size_bytes()  # group commit
    replayed = list(engine.wal.replay())
    assert len(replayed) == 50
    assert replayed[0].key == b"k0"


def test_quorum_authenticated_index_charges_measured_hashes():
    """Fig. 12 direction on a whole run: the authenticated index is
    slower than the plain one in *simulated* terms, and the gap comes
    from measured hash work, not calibration constants."""
    from repro.bench.harness import SMOKE, run_point
    mpt = run_point("quorum", scale=SMOKE, seed=7,
                    extras={"index": "lsm+mpt"})
    lsm = run_point("quorum", scale=SMOKE, seed=7, extras={"index": "lsm"})
    assert mpt.extras["system"].mpt_hashes_charged > 0
    assert lsm.extras["system"].mpt_hashes_charged == 0
    assert mpt.tps < lsm.tps, (mpt.tps, lsm.tps)
