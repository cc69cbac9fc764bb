"""Exact counts of the work a seeded 10k-record load does in the LSM.

Cost pins in the spirit of the event-object counts: they fix how many
``_SkipNode`` objects (memtable heads included) a TiKV cluster builds,
how many keys its SSTables hash into bloom filters and how many records
its WAL encodes while it loads the ledger's 10,000 YCSB records into its
4,096-record LSM memtable, and how often a Zipf query run over that load
hashes a key to its region and scrambles a rank to a key.  The counts
repeat to the digit, so a load path that goes back to building what
nothing reads, or a read path that goes back to recomputing what it
already knows, shows up here without a clock.
"""

import types

from repro.sharding import partitioner
from repro.sim import Environment
from repro.storage import skiplist, sstable, wal
from repro.systems import SystemConfig, TikvSystem
from repro.workloads import (DriverConfig, YcsbConfig, YcsbWorkload,
                             run_closed_loop)
from repro.workloads.zipf import ZipfGenerator

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

#: ``sha256`` calls in the partitioner during a 64-client Zipf 0.99 query
#: run over that load (100 warm-up and 2,000 measured one-op queries): one
#: per distinct key routed.  Hashing on every lookup, once for the read
#: and once for the reply, made 4,262.
ROUTING_HASHES_QUERY_RUN = 980

#: ``ZipfGenerator._scramble`` calls during the same run: one per distinct
#: rank drawn.  Scrambling every draw made 2,162.
SCRAMBLES_QUERY_RUN = 984


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


def test_tikv_query_run_hashes_each_key_and_scrambles_each_rank_once(
        monkeypatch):
    # One workload loads and then draws, as the ledger's point does.
    system = TikvSystem(Environment(), SystemConfig(num_nodes=5, seed=7))
    workload = _workload()
    system.load(workload.initial_records())
    hashed = [0]
    sha256 = partitioner.hashlib.sha256

    def counting_sha256(data):
        hashed[0] += 1
        return sha256(data)
    monkeypatch.setattr(partitioner, "hashlib",
                        types.SimpleNamespace(sha256=counting_sha256))
    scrambled = _counted(monkeypatch, ZipfGenerator, "_scramble")
    result = run_closed_loop(system.env, system, workload.next_query,
                             DriverConfig(clients=64, warmup_txns=100,
                                          measure_txns=2_000,
                                          query_mode=True))
    assert result.measured == 2_000
    assert hashed[0] == ROUTING_HASHES_QUERY_RUN
    assert hashed[0] == len(system.cluster.partitioner._shards)
    assert scrambled[0] == SCRAMBLES_QUERY_RUN
    assert scrambled[0] == len(workload.zipf._items)
