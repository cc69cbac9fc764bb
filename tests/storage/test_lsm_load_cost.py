"""Exact counts of the work a seeded 10k-record load does in the LSM.

Cost pins in the spirit of the event-object counts: they fix how many
``_SkipNode`` objects (memtable heads included) a TiKV cluster builds,
how many keys its SSTables hash into bloom filters and how many records
its WAL encodes while it loads the ledger's 10,000 YCSB records into its
4,096-record LSM memtable.  The counts repeat to the digit, so a load
path that goes back to building what nothing reads shows up here
without a clock.
"""

from repro.sim import Environment
from repro.storage import skiplist, sstable, wal
from repro.systems import SystemConfig, TikvSystem
from repro.workloads import (DriverConfig, YcsbConfig, YcsbWorkload,
                             run_closed_loop)

#: _SkipNode constructions during TikvSystem(5 nodes, seed 7).load of the
#: 10k YCSB records (record_size 1000, seed 8): the two full runs of
#: 4,096 records flush straight from the batch, so only the 1,808-record
#: tail builds nodes, plus the fresh memtable head after each flush.
#: Putting every record through the memtable builds 10,002.
SKIP_NODES_10K_LOAD = 1_810

#: Keys hashed into bloom filters during the same load: a table fills
#: its filter on first read, and the load reads neither flushed table.
#: Filling at construction hashed 8,192 (4,096 keys per table).
BLOOM_KEYS_10K_LOAD = 0

#: Records the LSM's WAL encodes during the same load: the log encodes
#: records when its bytes are read, and the load only sizes and syncs it.
#: Encoding at append encoded 1,808 (the tail after the last flush).
WAL_RECORDS_10K_LOAD = 0


def _counted(monkeypatch, owner, name) -> list[int]:
    """Count the calls to ``owner.name`` from here on; returns the
    one-element tally."""
    tally = [0]
    inner = getattr(owner, name)

    def counting(*args):
        tally[0] += 1
        return inner(*args)
    monkeypatch.setattr(owner, name, counting)
    return tally


def _workload() -> YcsbWorkload:
    return YcsbWorkload(YcsbConfig(record_count=10_000, record_size=1000,
                                   theta=0.99, seed=8))


def _system_and_records() -> tuple[TikvSystem, dict[str, bytes]]:
    system = TikvSystem(Environment(), SystemConfig(num_nodes=5, seed=7))
    return system, _workload().initial_records()


def test_tikv_10k_load_skip_node_count_pinned(monkeypatch):
    system, records = _system_and_records()
    built = _counted(monkeypatch, skiplist._SkipNode, "__init__")
    system.load(records)
    assert built[0] == SKIP_NODES_10K_LOAD
    assert len(system.engine.tree._memtable) == 1_808


def test_tikv_10k_load_bloom_and_wal_counts_pinned(monkeypatch):
    system, records = _system_and_records()
    hashed = _counted(monkeypatch, sstable, "sha256")
    encoded = _counted(monkeypatch, wal, "_pack_into")
    system.load(records)
    assert (hashed[0], encoded[0]) == (BLOOM_KEYS_10K_LOAD,
                                       WAL_RECORDS_10K_LOAD)
    assert system.engine.tree.wal.appended == 10_000


def test_tikv_10k_load_and_query_run_fill_no_filter(monkeypatch):
    """Reads are served above the LSM, so a Zipf query run after the load
    does not take up the deferred work either."""
    system, records = _system_and_records()
    hashed = _counted(monkeypatch, sstable, "sha256")
    encoded = _counted(monkeypatch, wal, "_pack_into")
    system.load(records)
    result = run_closed_loop(system.env, system, _workload().next_query,
                             DriverConfig(clients=64, warmup_txns=100,
                                          measure_txns=2_000,
                                          query_mode=True))
    assert result.measured == 2_000
    assert (hashed[0], encoded[0]) == (0, 0)
