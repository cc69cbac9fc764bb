"""YCSB workload generator (Cooper et al.), as configured in the paper.

Table 3 parameters: record size {10, 100, **1000**, 5000} bytes, Zipfian
coefficient theta {**0.0** .. 1.0}, operations per transaction
{**1**, 2, 4, 6, 8, 10}, 100K records.  The two peak-performance
workloads are uniform update-only (100% writes) and uniform query-only
(100% reads); the skew experiments use read-modify-write transactions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..txn.transaction import Op, OpType, Transaction
from .zipf import ZipfGenerator

if TYPE_CHECKING:  # annotations only: templates() imports it, so a run
    # that certifies nothing never loads repro.analysis
    from ..analysis.robustness import TxnTemplate

__all__ = ["YcsbConfig", "YcsbWorkload"]


@dataclass
class YcsbConfig:
    """Knobs mirroring Table 3 (defaults underlined in the paper)."""

    record_count: int = 100_000
    record_size: int = 1000
    ops_per_txn: int = 1
    theta: float = 0.0
    # op mix for next_transaction(); the paper's experiments use the pure
    # modes via next_update()/next_query()/next_rmw().
    read_proportion: float = 0.0
    seed: int = 42
    # When True, total written bytes stay at ``record_size`` regardless of
    # ops_per_txn (Section 5.3.2: "vary the record size such that the
    # total transaction size is 1000 bytes").
    fix_total_size: bool = False


class YcsbWorkload:
    """Generates YCSB transactions over the key space usertable[0..N)."""

    #: Each pure mode -> the method that draws its transactions.
    MODES = {"update": "next_update", "query": "next_query",
             "rmw": "next_rmw"}

    def __init__(self, config: Optional[YcsbConfig] = None):
        self.config = config or YcsbConfig()
        if not 1 <= self.config.ops_per_txn <= self.config.record_count:
            raise ValueError(
                f"ops_per_txn={self.config.ops_per_txn} draws no "
                f"transaction of distinct keys: it must lie in "
                f"[1, record_count={self.config.record_count}]")
        self.rng = random.Random(self.config.seed)
        self.zipf = ZipfGenerator(self.config.record_count,
                                  self.config.theta, rng=self.rng)
        self._value_cache: dict[int, bytes] = {}
        self._keys: Optional[list[str]] = None

    # -- keys & values ---------------------------------------------------------

    def key(self, index: int) -> str:
        return f"user{index:012d}"

    def _key_table(self) -> list[str]:
        """``key(i)`` for every record index, formatted once on first
        use: the loaded state and every drawn transaction share these
        ``str`` objects."""
        if self._keys is None:
            self._keys = list(map(self.key, range(self.config.record_count)))
        return self._keys

    def _value(self, size: int) -> bytes:
        value = self._value_cache.get(size)
        if value is None:
            value = bytes(self.rng.randrange(256) for _ in range(size))
            self._value_cache[size] = value
        return value

    @property
    def op_record_size(self) -> int:
        """Per-op record size (divided when fix_total_size is set)."""
        if self.config.fix_total_size and self.config.ops_per_txn > 1:
            return max(1, self.config.record_size // self.config.ops_per_txn)
        return self.config.record_size

    def initial_records(self) -> dict[str, bytes]:
        """The pre-population the paper loads before measuring."""
        return dict.fromkeys(self._key_table(),
                             self._value(self.config.record_size))

    def _distinct_keys(self, count: int) -> list[str]:
        table = self._key_table()
        if count == 1:
            return [table[self.zipf.next()]]
        seen: set[int] = set()
        while len(seen) < count:
            seen.add(self.zipf.next())
        return [table[i] for i in seen]

    # -- transaction constructors ---------------------------------------------------

    def next_update(self, client: str = "client-0") -> Transaction:
        """Blind-write transaction (the 100%-write peak workload)."""
        keys = self._distinct_keys(self.config.ops_per_txn)
        value = self._value(self.op_record_size)
        ops = [Op(OpType.WRITE, key, value) for key in keys]
        return Transaction(ops=ops, client=client)

    def next_query(self, client: str = "client-0") -> Transaction:
        """Read-only transaction (the 100%-read peak workload)."""
        keys = self._distinct_keys(self.config.ops_per_txn)
        ops = [Op(OpType.READ, key) for key in keys]
        return Transaction(ops=ops, client=client)

    def next_rmw(self, client: str = "client-0") -> Transaction:
        """Read-modify-write (the skew/op-count conflict experiments)."""
        keys = self._distinct_keys(self.config.ops_per_txn)
        value = self._value(self.op_record_size)
        ops = [Op(OpType.UPDATE, key, value) for key in keys]
        return Transaction(ops=ops, client=client)

    def templates(self, mode: str) -> list[TxnTemplate]:
        """The certifier's template for ``mode``, abstracted from one
        transaction a fresh workload of this config draws (this one's
        random stream is left as it is)."""
        from ..analysis.robustness import TxnTemplate
        txn = getattr(YcsbWorkload(self.config), self.MODES[mode])()
        return [TxnTemplate.of(f"ycsb_{mode}", txn, self.atom)]

    @staticmethod
    def atom(key: str) -> tuple[str, str]:
        """``(keyspace, owner)`` of a key: every key owns itself."""
        return "usertable", key

    def next_transaction(self, client: str = "client-0") -> Transaction:
        """Mixed workload using ``read_proportion``."""
        if self.rng.random() < self.config.read_proportion:
            return self.next_query(client)
        return self.next_rmw(client)
