"""Tests for the transaction model."""

from repro.txn import AbortReason, Op, OpType, Transaction, TxnStatus


def test_txn_ids_are_unique_and_increasing():
    a, b = Transaction.write("k", b"v"), Transaction.write("k", b"v")
    assert b.txn_id > a.txn_id


def test_read_write_key_classification():
    txn = Transaction(ops=[
        Op(OpType.READ, "r"),
        Op(OpType.WRITE, "w", b"1"),
        Op(OpType.UPDATE, "u", b"2"),
    ])
    assert txn.read_keys == ["r", "u"]
    assert txn.write_keys == ["w", "u"]
    assert txn.keys == ["r", "w", "u"]


def test_is_read_only():
    assert Transaction.read("k").is_read_only
    assert not Transaction.update("k", b"v").is_read_only
    assert not Transaction.write("k", b"v").is_read_only


def test_payload_size_counts_written_bytes_only():
    txn = Transaction(ops=[Op(OpType.READ, "r"),
                           Op(OpType.WRITE, "w", b"12345")])
    assert txn.payload_size == 5


def test_status_transitions():
    txn = Transaction.write("k", b"v")
    assert txn.status is TxnStatus.PENDING
    txn.mark_committed()
    assert txn.status is TxnStatus.COMMITTED
    txn2 = Transaction.write("k", b"v")
    txn2.mark_aborted(AbortReason.WRITE_WRITE_CONFLICT)
    assert txn2.status is TxnStatus.ABORTED
    assert txn2.abort_reason is AbortReason.WRITE_WRITE_CONFLICT


def test_convenience_constructors():
    w = Transaction.write("k", b"v", client="c9")
    assert w.ops[0].op_type is OpType.WRITE and w.client == "c9"
    r = Transaction.read("k")
    assert r.ops[0].op_type is OpType.READ
    u = Transaction.update("k", b"v")
    assert u.ops[0].op_type is OpType.UPDATE
    assert u.ops[0].is_write


def test_derive_writes_prefers_derived_values_over_op_values():
    txn = Transaction(ops=[Op(OpType.READ, "r"),
                           Op(OpType.UPDATE, "u", b"placeholder"),
                           Op(OpType.WRITE, "w", b"blind")],
                      logic=lambda reads: {"u": reads["r"] + b"!"})
    assert txn.derive_writes({"r": b"seen", "u": b"old"})
    assert txn.write_set == {"u": b"seen!", "w": b"blind"}
    assert txn.status is TxnStatus.PENDING


def test_derive_writes_logic_abort_leaves_write_set_empty():
    txn = Transaction(ops=[Op(OpType.UPDATE, "u", b"placeholder")],
                      logic=lambda reads: None)
    assert not txn.derive_writes({"u": b"old"})
    assert txn.write_set == {}
    assert txn.abort_reason is AbortReason.LOGIC
