"""Tests for versioned state and the hash-chained ledger."""

from repro.txn import (Ledger, Op, OpType, Transaction, TxnStatus,
                       VersionedStore, envelope_size)
from repro.txn.ledger import Block, BlockHeader
from repro.crypto.hashing import NULL_HASH


# -- VersionedStore ---------------------------------------------------------

def test_versioned_store_roundtrip():
    store = VersionedStore()
    store.put("a", b"1", 5)
    assert store.get("a") == (b"1", 5)
    assert store.version("a") == 5


def test_versioned_store_missing_key():
    store = VersionedStore()
    assert store.get("ghost") == (None, 0)
    assert store.version("ghost") == 0
    assert "ghost" not in store


def test_apply_write_set_stamps_version():
    store = VersionedStore()
    store.apply_write_set({"x": b"1", "y": b"2"}, version=7)
    assert store.get("x") == (b"1", 7)
    assert store.get("y") == (b"2", 7)
    assert len(store) == 2


def test_snapshot_is_a_copy():
    store = VersionedStore()
    store.put("a", b"1", 1)
    snap = store.snapshot()
    store.put("a", b"2", 2)
    assert snap["a"] == (b"1", 1)


def test_data_bytes_accounting():
    store = VersionedStore()
    store.put("a", b"12345", 1)
    store.put("b", b"123", 1)
    assert store.data_bytes() == 8


def test_read_inputs_stamps_read_set_and_defaults_absent_keys():
    store = VersionedStore()
    store.put("a", b"x", 3)
    txn = Transaction(ops=[Op(OpType.READ, "a"), Op(OpType.UPDATE, "b", b"v"),
                           Op(OpType.WRITE, "c", b"w")])
    assert store.read_inputs(txn) == {"a": b"x", "b": b""}
    assert txn.read_set == {"a": 3, "b": 0}


def test_install_applies_at_version_and_commits():
    store = VersionedStore()
    txn = Transaction.write("k", b"v")
    assert txn.derive_writes({})
    store.install(txn, 7)
    assert store.get("k") == (b"v", 7)
    assert txn.commit_version == 7
    assert txn.status is TxnStatus.COMMITTED


# -- envelope sizing (Fig. 12) ------------------------------------------------

def test_envelope_size_grows_three_records_per_txn():
    small = envelope_size(Transaction.write("k", b"x" * 10), endorsements=3)
    large = envelope_size(Transaction.write("k", b"x" * 5000), endorsements=3)
    assert large - small == 3 * (5000 - 10)


def test_envelope_size_grows_with_endorsements():
    txn = Transaction.write("k", b"x" * 100)
    e3 = envelope_size(txn, endorsements=3)
    e5 = envelope_size(txn, endorsements=5)
    assert e5 - e3 == 2 * (1500 + 71)


def test_envelope_size_matches_fig12_magnitude():
    """At 3 endorsements and 10 B records the paper reports ~6.7 kB/txn."""
    txn = Transaction.write("k", b"x" * 10)
    size = envelope_size(txn, endorsements=3)
    assert 5000 < size < 9000


# -- ledger -------------------------------------------------------------------

def _chain_with(n_blocks=3, txns_per_block=4):
    ledger = Ledger()
    for b in range(n_blocks):
        txns = [Transaction.write(f"k{b}:{i}", b"v") for i in range(txns_per_block)]
        ledger.append_block(txns, timestamp=float(b))
    return ledger


def test_ledger_heights_and_linkage():
    ledger = _chain_with(3)
    assert ledger.height == 3
    assert ledger.blocks[1].header.prev_hash == ledger.blocks[0].digest()
    assert ledger.blocks[0].header.prev_hash == NULL_HASH


def test_ledger_verify_ok():
    assert _chain_with(5).verify()


def test_ledger_detects_txn_tampering():
    ledger = _chain_with(3)
    ledger.blocks[1].txns.append(Transaction.write("evil", b"x"))
    assert not ledger.verify()


def test_ledger_detects_header_tampering():
    ledger = _chain_with(3)
    original = ledger.blocks[1]
    ledger.blocks[1] = Block(
        header=BlockHeader(number=1,
                           prev_hash=b"\x01" * 32,
                           txns_root=original.header.txns_root,
                           timestamp=original.header.timestamp),
        txns=original.txns)
    assert not ledger.verify()


def test_ledger_detects_block_reordering():
    ledger = _chain_with(4)
    ledger.blocks[1], ledger.blocks[2] = ledger.blocks[2], ledger.blocks[1]
    assert not ledger.verify()


def test_merkle_root_changes_with_txns():
    t1 = [Transaction.write("a", b"1")]
    t2 = [Transaction.write("b", b"2")]
    assert Block.txns_merkle_root(t1) != Block.txns_merkle_root(t2)
    assert Block.txns_merkle_root([]) == NULL_HASH


def test_ledger_total_bytes_and_txns():
    ledger = _chain_with(2, txns_per_block=3)
    assert ledger.total_txns() == 6
    assert ledger.total_bytes() > 6 * 1000  # envelopes dominate


def test_empty_ledger_tip():
    assert Ledger().tip_hash == NULL_HASH
    assert Ledger().verify()

