"""Direct layer timings: synthetic input straight into a layer's public API.

Each function builds its input from the seed outside the timed region,
times a fixed number of operations, and returns ``(ops, seconds)`` —
plus extra exact counts where a layer has them.  ``run_all`` repeats each
one and reports the median rate, in host operations per second.

These rates say what one layer costs in isolation.  They are not
end-to-end numbers: a layer that gets faster here and moves no workload
in ``run.py`` was not on that workload's path.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from repro.adt.mbt import MerkleBucketTree
from repro.adt.mpt import MerklePatriciaTrie
from repro.analysis.serializability import HistoryChecker
from repro.concurrency.occ import OccSimulator, OccValidator
from repro.concurrency.percolator import PercolatorStore, TimestampOracle
from repro.consensus.raft import RaftGroup
from repro.crypto.hashing import hash_concat, hash_pair, sha256
from repro.sim.kernel import Environment
from repro.sim.metrics import LatencyRecorder
from repro.sim.network import Message, Network
from repro.sim.node import Node
from repro.sim.resources import Resource
from repro.sim.wheel import TimingWheel
from repro.storage.lsm import LSMTree
from repro.txn.state import VersionedStore
from repro.txn.transaction import Op, OpType, Transaction
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload
from repro.workloads.zipf import ZipfGenerator

REPS = 3


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def kernel(seed: int, events: int = 60_000):
    """Timer-driven processes plus a cancel-heavy one, like the driver."""
    env = Environment()
    count = [0]

    def ticker(period):
        while count[0] < events:
            yield env.timeout(period)
            count[0] += 1

    def canceller():
        while count[0] < events:
            timer = env.timeout(60.0)
            yield env.timeout(0.001)
            timer.cancel()
            count[0] += 1

    rng = random.Random(seed)
    for _ in range(8):
        env.process(ticker(0.0001 * (1 + rng.random())))
    env.process(canceller())
    wall = _timed(lambda: env.run(until=1e9))
    return count[0], wall


def wheel(seed: int, entries: int = 30_000):
    """File entries at seeded instants, cancel half, drain the rest."""
    env = Environment()
    tw = TimingWheel(env, tick=0.001)
    rng = random.Random(seed)
    whens = [rng.random() * 5.0 for _ in range(entries)]
    fired = [0]

    def hit(_arg):
        fired[0] += 1

    def body():
        filed = [tw.schedule(when, hit) for when in whens]
        for entry in filed[::2]:
            tw.cancel(entry)
        env.run(until=6.0)

    wall = _timed(body)
    return entries + entries // 2 + fired[0], wall


def network(seed: int, messages: int = 12_000):
    """Seeded point-to-point sends through NIC egress and propagation."""
    env = Environment()
    net = Network(env)
    names = [f"n{i}" for i in range(6)]
    for name in names:
        net.attach(Node(env, name))
    rng = random.Random(seed)
    pairs = [rng.sample(names, 2) for _ in range(messages)]

    def body():
        for src, dst in pairs:
            net.send(Message(src=src, dst=dst, kind="micro", size=512))
        env.run()

    wall = _timed(body)
    if net.messages_sent != messages:
        raise AssertionError(f"sent {net.messages_sent} of {messages}")
    return messages, wall


def resources(seed: int, serves: int = 40_000):
    """Sixteen closed chains contending for a capacity-4 resource."""
    env = Environment()
    res = Resource(env, capacity=4)
    rng = random.Random(seed)
    costs = [0.0005 + rng.random() * 0.001 for _ in range(serves)]
    issued = [0]

    def again(_ev):
        if issued[0] < serves:
            cost = costs[issued[0]]
            issued[0] += 1
            res.serve_event(cost).callbacks.append(again)

    def body():
        for _ in range(16):
            again(None)
        env.run()

    wall = _timed(body)
    if res.total_requests != serves:
        raise AssertionError(f"served {res.total_requests} of {serves}")
    return serves, wall


def metrics(seed: int, records: int = 200_000):
    """Record latencies, then the percentile report an open loop asks for."""
    rng = random.Random(seed)
    values = [rng.expovariate(100.0) for _ in range(records)]
    rec = LatencyRecorder("micro")

    def body():
        for value in values:
            rec.record(value)
        rec.pct(50), rec.pct(99), rec.pct(99.9), rec.mean

    return records, _timed(body)


def raft(seed: int, commits: int = 2_000):
    """Five replicas, 64 closed proposal chains, until ``commits`` land."""
    env = Environment()
    net = Network(env)
    nodes = [Node(env, f"r{i}") for i in range(5)]
    for node in nodes:
        net.attach(node)
    group = RaftGroup(env, nodes, net)
    done = env.event()
    state = {"proposed": 0, "committed": 0}

    def propose():
        state["proposed"] += 1
        group.propose(("item", state["proposed"]), size=1000) \
            .callbacks.append(landed)

    def landed(ev):
        if not ev.ok:
            raise AssertionError(f"proposal failed: {ev.value!r}")
        state["committed"] += 1
        if state["proposed"] < commits:
            propose()
        elif state["committed"] == commits:
            done.succeed()

    def body():
        for _ in range(64):
            propose()
        env.run(until=600.0, stop=done)

    wall = _timed(body)
    if state["committed"] != commits:
        raise AssertionError(f"committed {state['committed']} of {commits}")
    return commits, wall


def _rmw_txns(seed: int, count: int, keys: int) -> list[Transaction]:
    rng = random.Random(seed)
    return [Transaction(ops=[Op(OpType.UPDATE, f"k{k}", b"v" * 100)
                             for k in rng.sample(range(keys), 2)])
            for _ in range(count)]


def occ(seed: int, txns: int = 30_000):
    """Simulate then validate-and-commit, serially (no conflicts arise)."""
    store = VersionedStore()
    for k in range(5_000):
        store.put(f"k{k}", b"v" * 100, 0)
    simulator, validator = OccSimulator(store), OccValidator(store)
    batch = _rmw_txns(seed, txns, 5_000)

    def body():
        for version, txn in enumerate(batch, 1):
            simulator.simulate(txn)
            validator.validate_and_commit(txn, version)

    wall = _timed(body)
    if validator.committed != txns:
        raise AssertionError(f"committed {validator.committed} of {txns}")
    return txns, wall


def percolator(seed: int, txns: int = 30_000):
    """Prewrite two keys and commit, one transaction at a time."""
    store, oracle = PercolatorStore(), TimestampOracle()
    rng = random.Random(seed)
    key_sets = [[f"k{k}" for k in rng.sample(range(5_000), 2)]
                for _ in range(txns)]

    def body():
        for txn_id, keys in enumerate(key_sets, 1):
            start_ts = oracle.next()
            store.prewrite(txn_id, keys, keys[0], start_ts)
            store.commit(txn_id, {key: b"v" for key in keys}, oracle.next())

    wall = _timed(body)
    if store.prewrites != txns or store.conflicts:
        raise AssertionError(f"{store.prewrites} prewrites, "
                             f"{store.conflicts} conflicts of {txns}")
    return txns, wall


def _lsm_input(seed: int, count: int):
    rng = random.Random(seed)
    keys = [b"user%012d" % i for i in range(count)]
    rng.shuffle(keys)
    return rng, keys


def lsm_puts(seed: int, puts: int = 12_000):
    """Seeded-order puts through flushes and compaction."""
    tree = LSMTree(memtable_limit=4096)
    _rng, keys = _lsm_input(seed, puts)

    def body():
        for key in keys:
            tree.put(key, b"v" * 100)

    return puts, _timed(body)


def lsm_gets(seed: int, gets: int = 12_000):
    """Point gets over the levels the puts above leave behind."""
    tree = LSMTree(memtable_limit=4096)
    rng, keys = _lsm_input(seed, gets)
    for key in keys:
        tree.put(key, b"v" * 100)
    probes = [rng.choice(keys) for _ in range(gets)]

    def body():
        for key in probes:
            if tree.get(key) is None:
                raise AssertionError(f"lost key {key!r}")

    return gets, _timed(body)


def mpt(seed: int, writes: int = 4_000, block: int = 100):
    """Staged writes folded per block, as a ledger commits them."""
    trie = MerklePatriciaTrie()
    rng = random.Random(seed)
    keys = [b"user%012d" % rng.randrange(10_000) for _ in range(writes)]

    def body():
        for i, key in enumerate(keys, 1):
            trie.stage(key, b"value-%d" % i)
            if i % block == 0:
                trie.commit()
        trie.commit()

    wall = _timed(body)
    return writes, wall, trie.hashes_computed / writes


def mbt(seed: int, writes: int = 20_000, block: int = 100):
    tree = MerkleBucketTree(num_buckets=1000, fanout=4)
    rng = random.Random(seed)
    keys = [b"acct%d" % rng.randrange(10_000) for _ in range(writes)]

    def body():
        for i, key in enumerate(keys, 1):
            tree.stage(key, b"balance-%d" % i)
            if i % block == 0:
                tree.commit()
        tree.commit()

    return writes, _timed(body)


def crypto(seed: int, hashes: int = 60_000):
    """The three digest helpers over ledger-sized inputs."""
    rng = random.Random(seed)
    blobs = [rng.randbytes(256) for _ in range(hashes // 3)]

    def body():
        left = blobs[0][:32]
        for blob in blobs:
            digest = sha256(blob)
            left = hash_pair(left, digest)
            hash_concat(left, digest, blob[:64])

    return 3 * len(blobs), _timed(body)


def zipf(seed: int, draws: int = 60_000):
    gen = ZipfGenerator(100_000, theta=0.99, rng=random.Random(seed))
    gen.next()   # alias tables are built before timing

    def body():
        for _ in range(draws):
            gen.next()

    return draws, _timed(body)


def ycsb(seed: int, txns: int = 25_000):
    workload = YcsbWorkload(YcsbConfig(record_count=10_000, record_size=1000,
                                       ops_per_txn=2, theta=0.8, seed=seed))
    workload.next_rmw()

    def body():
        for _ in range(txns):
            workload.next_rmw("client-0")

    return txns, _timed(body)


def analysis(seed: int, txns: int = 3_000):
    """Serializability check of a serial (hence acyclic) history."""
    versions: dict[str, int] = {}
    history = _rmw_txns(seed, txns, 2_000)
    for version, txn in enumerate(history, 1):
        txn.read_set = {key: versions.get(key, 0) for key in txn.keys}
        txn.write_set = {key: b"v" for key in txn.keys}
        txn.commit_version = version
        txn.mark_committed()
        versions.update(dict.fromkeys(txn.keys, version))
    report = []

    def body():
        checker = HistoryChecker()
        checker.observe_all(history)
        report.append(checker.check())

    wall = _timed(body)
    if not report[0].serializable:
        raise AssertionError("serial history reported as non-serializable")
    return txns, wall


def _median_rate(fn, seed: int) -> tuple[float, tuple]:
    """Median ops/s over ``REPS`` runs, and the last run's raw return."""
    rates, last = [], None
    for _ in range(REPS):
        gc.collect()
        last = fn(seed)
        rates.append(last[0] / last[1])
    return statistics.median(rates), last


def run_all(seed: int) -> dict:
    """Every direct layer timing, by metric name."""
    out = {}
    for name, fn in (
            ("sim.kernel.micro_events_per_s", kernel),
            ("sim.wheel.micro_ops_per_s", wheel),
            ("sim.network.micro_msgs_per_s", network),
            ("sim.resources.micro_serves_per_s", resources),
            ("sim.metrics.micro_records_per_s", metrics),
            ("consensus.raft.micro_commits_per_s", raft),
            ("concurrency.occ.micro_validates_per_s", occ),
            ("concurrency.percolator.micro_txns_per_s", percolator),
            ("storage.lsm.micro_puts_per_s", lsm_puts),
            ("storage.lsm.micro_gets_per_s", lsm_gets),
            ("adt.mbt.micro_writes_per_s", mbt),
            ("crypto.micro_hashes_per_s", crypto),
            ("workloads.zipf.micro_draws_per_s", zipf),
            ("workloads.ycsb.micro_txns_per_s", ycsb),
            ("analysis.micro_check_txns_per_s", analysis)):
        out[name], _ = _median_rate(fn, seed)
    out["adt.mpt.micro_writes_per_s"], last = _median_rate(mpt, seed)
    out["adt.mpt.micro_hashes_per_write"] = last[2]
    return out
