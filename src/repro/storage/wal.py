"""Write-ahead log with checksummed records and crash-truncated replay.

The paper (Section 3.3.1) notes databases keep history only in pruned WALs
used for recovery — unlike the blockchain ledger.  This WAL backs the LSM
engine: records are length-prefixed and CRC-protected, a torn tail (as left
by a crash) is detected and discarded at replay.

Records are appended in batches (:meth:`WriteAheadLog.append_batch`).  A
writer that checkpoints inside a batch (the LSM flushes its memtable and
truncates the log) passes how many of the batch's leading records that
checkpoint already covered: they are *counted* in ``appended`` — they
were logged — but never encoded, because the truncation would discard
their bytes unread.  The buffer ends up byte-identical to appending and
truncating record by record.

The other records are kept as ``(seq, key, value)`` and encoded when
something reads the log's bytes: :meth:`~WriteAheadLog.replay`,
:meth:`~WriteAheadLog.crash`, :meth:`~WriteAheadLog.corrupt_tail` or the
buffer itself.  Sizes and sync points need no encoding — a record is
exactly 24 bytes plus its key and value — and a truncation drops pending
records unencoded, so a log that is checkpointed before anything reads
it never encodes a record.  The bytes, once read, are the ones eager
encoding would have written.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Sequence

__all__ = ["WriteAheadLog", "WalRecord"]

# record = body length, crc32(body), body; body = seq, key length, key,
# value length, value (all integers big-endian)
_HEADER = struct.Struct(">II")
_SEQ_KEYLEN = struct.Struct(">QI")
_VALUELEN = struct.Struct(">I")
# a record's encoded length beyond its key and value (24 bytes)
_RECORD_OVERHEAD = _HEADER.size + _SEQ_KEYLEN.size + _VALUELEN.size


def _pack_into(buffer: bytearray, seq: int, key: bytes, value: bytes) -> None:
    """Append one encoded record to ``buffer`` (the one record packer)."""
    body = b"".join((_SEQ_KEYLEN.pack(seq, len(key)), key,
                     _VALUELEN.pack(len(value)), value))
    buffer += _HEADER.pack(len(body), zlib.crc32(body))
    buffer += body


class WalRecord:
    """One logical WAL entry."""

    __slots__ = ("seq", "key", "value")

    def __init__(self, seq: int, key: bytes, value: bytes):
        self.seq = seq
        self.key = key
        self.value = value

    def encode(self) -> bytes:
        out = bytearray()
        _pack_into(out, self.seq, self.key, self.value)
        return bytes(out)

    @classmethod
    def decode(cls, body: bytes) -> "WalRecord":
        seq = int.from_bytes(body[0:8], "big")
        klen = int.from_bytes(body[8:12], "big")
        key = body[12:12 + klen]
        pos = 12 + klen
        vlen = int.from_bytes(body[pos:pos + 4], "big")
        value = body[pos + 4:pos + 4 + vlen]
        return cls(seq, key, value)


class WriteAheadLog:
    """An in-memory byte buffer emulating an append-only log file."""

    def __init__(self):
        self._encoded = bytearray()
        # appended records not yet encoded: (first seq, records) per batch
        self._pending: list[tuple[int, Sequence[tuple[bytes, bytes]]]] = []
        self._pending_bytes = 0
        self.appended = 0
        self.synced_to = 0

    @property
    def _buffer(self) -> bytearray:
        """The log's bytes, with every pending record encoded first."""
        buffer = self._encoded
        for first_seq, records in self._pending:
            for seq, (key, value) in enumerate(records, first_seq):
                _pack_into(buffer, seq, key, value)
        self._pending.clear()
        self._pending_bytes = 0
        return buffer

    def append(self, record: WalRecord) -> None:
        self.append_batch(record.seq, ((record.key, record.value),))

    def append_batch(self, first_seq: int,
                     items: Sequence[tuple[bytes, bytes]],
                     checkpointed: int = 0) -> None:
        """Append ``items`` as records ``first_seq``, ``first_seq + 1``, …

        The first ``checkpointed`` records were covered by a checkpoint
        the writer took inside the batch: they count in ``appended`` but
        are not kept (see the module docstring).  The rest are kept
        unencoded until the log's bytes are read.
        """
        records = items[checkpointed:]
        if records:
            self._pending.append((first_seq + checkpointed, records))
            self._pending_bytes += (
                _RECORD_OVERHEAD * len(records)
                + sum(len(key) + len(value) for key, value in records))
        self.appended += len(items)

    def sync(self) -> None:
        """Mark everything written so far as durable."""
        self.synced_to = self.size_bytes()

    def crash(self) -> None:
        """Simulate a crash: unsynced bytes are lost (possibly mid-record)."""
        del self._buffer[self.synced_to:]

    def corrupt_tail(self, nbytes: int = 1) -> None:
        """Flip bytes at the end (torn write) — replay must stop cleanly."""
        buffer = self._buffer
        if buffer:
            for i in range(1, min(nbytes, len(buffer)) + 1):
                buffer[-i] ^= 0xFF

    def replay(self) -> Iterator[WalRecord]:
        """Yield records until the end or the first corrupt/torn record."""
        pos = 0
        buf = self._buffer
        while pos + 8 <= len(buf):
            body_len = int.from_bytes(buf[pos:pos + 4], "big")
            crc = int.from_bytes(buf[pos + 4:pos + 8], "big")
            start = pos + 8
            end = start + body_len
            if end > len(buf):
                return  # torn tail
            body = bytes(buf[start:end])
            if zlib.crc32(body) != crc:
                return  # corruption: stop replay
            yield WalRecord.decode(body)
            pos = end

    def truncate(self) -> None:
        """Discard the log after a successful flush (checkpoint); pending
        records go unencoded."""
        self._encoded.clear()
        self._pending.clear()
        self._pending_bytes = 0
        self.synced_to = 0

    def size_bytes(self) -> int:
        return len(self._encoded) + self._pending_bytes
