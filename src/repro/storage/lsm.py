"""Log-structured merge tree (LevelDB / RocksDB / TiKV storage model).

Writes land in a WAL and a skip-list memtable; full memtables flush to
immutable L0 SSTables; levels compact by size-tiered promotion with
leveled merge (newer data shadows older).  Space and write amplification
counters feed the storage analyses in the test suite.

Every write is a batch (:meth:`LSMTree.write_batch`; ``put`` and
``delete`` are batches of one).  A batch flushes a run that fills an
empty memtable straight to L0, inserts its other records into the
memtable in order, flushing each time the memtable fills, and then logs
them: records up to the batch's last flush are counted in the WAL but
never encoded, since that flush truncates the log (see
:mod:`repro.storage.wal`).  The resulting state — WAL bytes, SSTables,
bloom bits, memtable node levels, counters — is the state the same
records reach one write at a time: a flush installs a fresh memtable
whose RNG starts from its seed, so no later state depends on the node
levels a flushed record drew, or on whether it drew any.

The write path builds nothing only a read needs: a flushed or compacted
table fills its bloom filter on its first lookup, and the WAL encodes
its records when its bytes are read (:meth:`LSMTree.recover`, a crash).
Sizes and write amplification are exact without either, so a load that
nothing reads back from the tree hashes no key and encodes no record.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .skiplist import SkipList
from .sstable import SSTable, TOMBSTONE
from .wal import WriteAheadLog

__all__ = ["LSMTree"]

_key = itemgetter(0)
_value = itemgetter(1)


class LSMTree:
    """A leveled LSM key-value engine over bytes keys/values."""

    def __init__(self, memtable_limit: int = 256, level_factor: int = 4,
                 max_l0_tables: int = 4):
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be positive")
        self.memtable_limit = memtable_limit
        self.level_factor = level_factor
        self.max_l0_tables = max_l0_tables
        self.wal = WriteAheadLog()
        self._memtable = SkipList()
        self._seq = 0
        # levels[0] is newest-first list of possibly-overlapping L0 tables;
        # deeper levels each hold one non-overlapping sorted run.
        self.levels: list[list[SSTable]] = [[]]
        self.bytes_flushed = 0
        self.bytes_compacted = 0
        self.user_bytes_written = 0

    # -- write path -------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self.write_batch(((key, value),))

    def delete(self, key: bytes) -> None:
        self.write_batch(((key, None),))

    def write_batch(self, items: Iterable[tuple[bytes, Optional[bytes]]]
                    ) -> int:
        """Write ``(key, value)`` pairs in order (``None`` deletes the
        key); returns the number of memtable flushes the batch ran.

        A value equal to the tombstone marker raises ``ValueError``
        before anything is written.

        From an empty memtable, a run of the batch that holds
        ``memtable_limit`` distinct keys is flushed straight to L0: it
        is gathered in a dict (the last write wins) up to the record
        whose key brings the distinct count to the limit, the record at
        which the memtable would have filled.  Every other record goes
        through the memtable: one that tops up a partly filled memtable,
        the tail after the batch's last flush, a run with fewer distinct
        keys than the limit.  This is exact because the flush replaces
        the memtable with a fresh one whose RNG starts from its seed:
        the node levels the run would have drawn never reach a later
        state.  A partly filled memtable is not re-gathered into a dict,
        since a stream of single writes would then rebuild it per write.
        """
        batch = list(items)
        for _, value in batch:
            if value is None or value == TOMBSTONE:
                if TOMBSTONE in map(_value, batch):
                    raise ValueError("value collides with tombstone marker")
                batch = [(key, TOMBSTONE if value is None else value)
                         for key, value in batch]
                break
        limit = self.memtable_limit
        n = len(batch)
        size = len(self._memtable)
        flushes = 0
        logged_from = 0       # first record after the batch's last flush
        written = 0
        i = 0
        while i < n:
            run = None
            if not size and n - i >= limit:
                run = self._full_run(batch, i)
            if run is not None:
                entries, end = run
                flushed = batch[i:end]
                written += (sum(map(len, map(_key, flushed)))
                            + sum(map(len, map(_value, flushed))))
                i = end
                self._flush_entries(sorted(entries.items()))
            else:
                put = self._memtable.put
                while i < n and size < limit:
                    key, value = batch[i]
                    size += put(key, value)
                    written += len(key) + len(value)
                    i += 1
                if size < limit:
                    break
                self.flush()
            size = 0
            flushes += 1
            logged_from = i
        self.user_bytes_written += written
        self.wal.append_batch(self._seq + 1, batch, logged_from)
        self.wal.sync()
        self._seq += n
        return flushes

    def _full_run(self, batch: list[tuple[bytes, bytes]], start: int
                  ) -> Optional[tuple[dict[bytes, bytes], int]]:
        """The last value per key of ``batch[start:end]`` and ``end``,
        where record ``end - 1`` brings the distinct keys to
        ``memtable_limit``; ``None`` when the batch runs out first.

        Adding ``k`` records adds at most ``k`` keys, so the dict grows
        in slices of ``limit - len(run)`` records, and the count can
        reach the limit only on a slice's last record.
        """
        limit = self.memtable_limit
        run: dict[bytes, bytes] = {}
        end = start
        while end < len(batch):
            step = limit - len(run)
            run.update(batch[end:end + step])
            end += step
            if len(run) == limit:
                return run, end
        return None

    def flush(self) -> None:
        """Freeze the memtable into an L0 SSTable and truncate the WAL."""
        if len(self._memtable) == 0:
            return
        self._flush_entries(list(self._memtable.items()))

    def _flush_entries(self, entries: list[tuple[bytes, bytes]]) -> None:
        """Freeze sorted ``entries`` (the memtable's contents) as the
        newest L0 table, install a fresh memtable, truncate the WAL and
        compact L0 when it overflows (the one flush step)."""
        table = SSTable(entries, level=0)
        self.levels[0].insert(0, table)
        self.bytes_flushed += table.data_bytes()
        self._memtable = SkipList()
        self.wal.truncate()
        if len(self.levels[0]) > self.max_l0_tables:
            self._compact(0)

    # -- compaction --------------------------------------------------------------

    def _level_capacity(self, level: int) -> int:
        return self.memtable_limit * (self.level_factor ** (level + 1))

    def _compact(self, level: int) -> None:
        while level + 1 >= len(self.levels):
            self.levels.append([])
        sources = self.levels[level] + self.levels[level + 1]
        merged = self._merge(sources, drop_tombstones=level + 2 >= len(self.levels))
        self.levels[level] = []
        if merged:
            table = SSTable(merged, level=level + 1)
            self.levels[level + 1] = [table]
            self.bytes_compacted += table.data_bytes()
            if len(merged) > self._level_capacity(level + 1):
                self._compact(level + 1)
        else:
            self.levels[level + 1] = []

    @staticmethod
    def _merge(tables: list[SSTable],
               drop_tombstones: bool) -> list[tuple[bytes, bytes]]:
        """K-way merge where earlier tables (newer) win on duplicate keys."""
        latest: dict[bytes, bytes] = {}
        for table in tables:
            for key, value in table.items():
                if key not in latest:
                    latest[key] = value
        items = sorted(latest.items())
        if drop_tombstones:
            items = [(k, v) for k, v in items if v != TOMBSTONE]
        return items

    # -- read path ----------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        value = self._memtable.get(key)
        if value is not None:
            return None if value == TOMBSTONE else value
        for level_tables in self.levels:
            for table in level_tables:  # newest first within L0
                value = table.get(key)
                if value is not None:
                    return None if value == TOMBSTONE else value
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Merged range scan low <= key < high (newest version wins)."""
        latest: dict[bytes, bytes] = {}
        for level_tables in reversed(self.levels):
            for table in reversed(level_tables):
                for key, value in table.items():
                    if low <= key < high:
                        latest[key] = value
        for key, value in self._memtable.range(low, high):
            latest[key] = value
        for key in sorted(latest):
            if latest[key] != TOMBSTONE:
                yield key, latest[key]

    # -- recovery -------------------------------------------------------------------

    def recover(self) -> int:
        """Rebuild the memtable from the WAL after a crash; returns records."""
        self._memtable = SkipList()
        count = 0
        for record in self.wal.replay():
            self._memtable.put(record.key, record.value)
            self._seq = max(self._seq, record.seq)
            count += 1
        return count

    # -- statistics -------------------------------------------------------------------

    def table_count(self) -> int:
        return sum(len(tables) for tables in self.levels)

    def total_bytes(self) -> int:
        disk = sum(t.data_bytes() for tables in self.levels for t in tables)
        mem = sum(len(k) + len(v) + 8 for k, v in self._memtable.items())
        return disk + mem + self.wal.size_bytes()

    def write_amplification(self) -> float:
        if self.user_bytes_written == 0:
            return 0.0
        return (self.bytes_flushed + self.bytes_compacted) / self.user_bytes_written

    def __len__(self) -> int:
        """Number of live keys (scans everything; intended for tests)."""
        count = 0
        seen: set[bytes] = set()
        for key, value in self._memtable.items():
            seen.add(key)
            if value != TOMBSTONE:
                count += 1
        for level_tables in self.levels:
            for table in level_tables:
                for key, value in table.items():
                    if key not in seen:
                        seen.add(key)
                        if value != TOMBSTONE:
                            count += 1
        return count
