"""Exact count of the skip-list nodes a seeded 10k-record load builds.

A cost pin in the spirit of the event-object counts: it fixes how many
``_SkipNode`` objects (memtable heads included) a TiKV cluster builds
while it loads the ledger's 10,000 YCSB records into its 4,096-record
LSM memtable.  The count repeats to the digit, so a load path that goes
back to allocating nodes it then flushes shows up here without a clock.
"""

from repro.sim import Environment
from repro.storage import skiplist
from repro.systems import SystemConfig, TikvSystem
from repro.workloads import YcsbConfig, YcsbWorkload

#: _SkipNode constructions during TikvSystem(5 nodes, seed 7).load of the
#: 10k YCSB records (record_size 1000, seed 8): the two full runs of
#: 4,096 records flush straight from the batch, so only the 1,808-record
#: tail builds nodes, plus the fresh memtable head after each flush.
#: Putting every record through the memtable builds 10,002.
SKIP_NODES_10K_LOAD = 1_810


def test_tikv_10k_load_skip_node_count_pinned(monkeypatch):
    system = TikvSystem(Environment(), SystemConfig(num_nodes=5, seed=7))
    records = YcsbWorkload(YcsbConfig(record_count=10_000, record_size=1000,
                                      seed=8)).initial_records()
    built = 0
    init = skiplist._SkipNode.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)
    monkeypatch.setattr(skiplist._SkipNode, "__init__", counting)
    system.load(records)
    assert built == SKIP_NODES_10K_LOAD
    assert len(system.engine.tree._memtable) == 1_808
