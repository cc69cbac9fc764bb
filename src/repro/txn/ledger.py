"""The append-only ledger: blocks chained by real hash pointers.

This is the storage abstraction the paper's Section 3.3 contrasts with
database storage: blockchains keep *all* history, hash-protected, while
databases keep only latest state.  Block serialization sizes follow the
Fabric block/envelope layout so Figure 12's bytes-per-record measurements
can be regenerated faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..crypto.hashing import NULL_HASH, hash_concat, sha256
from .transaction import Transaction

__all__ = ["BlockHeader", "Block", "Ledger", "envelope_size"]


def envelope_size(txn: Transaction, endorsements: int,
                  certificate_size: int = 1500, signature_size: int = 71) -> int:
    """Serialized size of one Fabric-style transaction envelope.

    The envelope carries the written value three times (proposal payload,
    rw-set write, proposal-response payload) plus the creator's certificate,
    one certificate + signature per endorsement, and fixed protobuf headers.
    This reproduces Figure 12's block-storage growth of roughly
    ``6.7 kB + 3 x record`` per transaction (at 3 endorsing peers).
    """
    payload = txn.payload_size
    header = 300                      # channel/tx headers, nonce, timestamps
    creator = certificate_size + signature_size
    endorse = endorsements * (certificate_size + signature_size)
    rwset_meta = 64 * max(1, len(txn.ops))
    return header + creator + endorse + rwset_meta + 3 * payload


@dataclass(frozen=True)
class BlockHeader:
    """Hash-chained block header."""

    number: int
    prev_hash: bytes
    txns_root: bytes
    state_root: bytes = NULL_HASH
    timestamp: float = 0.0

    def digest(self) -> bytes:
        return hash_concat(
            self.number.to_bytes(8, "big"),
            self.prev_hash,
            self.txns_root,
            self.state_root,
            int(self.timestamp * 1e9).to_bytes(12, "big"),
        )


@dataclass
class Block:
    """A block of transactions plus its serialized-size accounting."""

    header: BlockHeader
    txns: list[Transaction] = field(default_factory=list)
    endorsements_per_txn: int = 0

    @property
    def number(self) -> int:
        return self.header.number

    def digest(self) -> bytes:
        return self.header.digest()

    def serialized_size(self, certificate_size: int = 1500,
                        signature_size: int = 71) -> int:
        """Total on-disk bytes of this block (header + envelopes + metadata)."""
        body = sum(
            envelope_size(t, self.endorsements_per_txn,
                          certificate_size, signature_size)
            for t in self.txns
        )
        block_metadata = 128 + signature_size  # orderer signature + flags
        return 96 + body + block_metadata

    @staticmethod
    def txns_merkle_root(txns: Iterable[Transaction]) -> bytes:
        """Merkle root over transaction ids (real SHA-256)."""
        level = [sha256(t.txn_id.to_bytes(8, "big")) for t in txns]
        if not level:
            return NULL_HASH
        while len(level) > 1:
            if len(level) % 2:
                level.append(level[-1])
            level = [sha256(level[i] + level[i + 1])
                     for i in range(0, len(level), 2)]
        return level[0]


class Ledger:
    """An append-only chain of blocks with integrity verification.

    Authenticated state lives in the system's storage engine
    (:mod:`repro.storage.engine`); the sealing system commits its engine
    once per block and stamps the resulting root via the ``state_root``
    argument of :meth:`append_block`.
    """

    def __init__(self):
        self.blocks: list[Block] = []

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def tip_hash(self) -> bytes:
        return self.blocks[-1].digest() if self.blocks else NULL_HASH

    def append_block(self, txns: list[Transaction], timestamp: float = 0.0,
                     state_root: bytes = NULL_HASH,
                     endorsements_per_txn: int = 0) -> Block:
        """Seal ``txns`` into the next block and append it."""
        header = BlockHeader(
            number=self.height,
            prev_hash=self.tip_hash,
            txns_root=Block.txns_merkle_root(txns),
            state_root=state_root,
            timestamp=timestamp,
        )
        block = Block(header=header, txns=list(txns),
                      endorsements_per_txn=endorsements_per_txn)
        self.blocks.append(block)
        return block

    def verify(self) -> bool:
        """Recompute every hash pointer; False if any link is broken."""
        prev = NULL_HASH
        for i, block in enumerate(self.blocks):
            if block.header.number != i:
                return False
            if block.header.prev_hash != prev:
                return False
            if block.header.txns_root != Block.txns_merkle_root(block.txns):
                return False
            prev = block.digest()
        return True

    def total_bytes(self, certificate_size: int = 1500,
                    signature_size: int = 71) -> int:
        """Total ledger storage (Fig. 12 'Fabric-block' series)."""
        return sum(b.serialized_size(certificate_size, signature_size)
                   for b in self.blocks)

    def total_txns(self) -> int:
        return sum(len(b.txns) for b in self.blocks)

    def __iter__(self):
        return iter(self.blocks)
