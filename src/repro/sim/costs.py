"""Calibrated service-time cost model.

Every constant a simulated system charges for CPU, crypto, network or
storage work lives here, with the paper measurement it was fitted to.
Times are simulated **seconds**; sizes are **bytes**.

The calibration targets are the paper's own micro-measurements:

* Figure 8a/8b latency breakdowns (Fabric phase times, TiDB SQL costs),
* Figure 11b (Quorum MPT reconstruction: 56 us at 10 B -> 2.5 ms at 5000 B),
* Table 4 endpoints (per-system throughput at 3 and 19 nodes),
* Figure 4 peak-throughput ordering (etcd > TiKV > TiDB > Fabric > Quorum).

Nothing outside this module hard-codes a performance number; systems charge
these costs and the macro results emerge from protocol structure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel", "DEFAULT_COSTS"]

US = 1e-6
MS = 1e-3


@dataclass(frozen=True)
class CostModel:
    """Service times and sizes used by the simulated systems."""

    # ---- network (1 Gb Ethernet LAN, Section 4.2) ----
    net_latency: float = 150 * US          # one-way propagation + switching
    net_bandwidth: float = 125e6           # bytes/second (1 Gb/s)
    net_send_overhead: float = 7 * US      # per-message sender CPU (syscall,
    #   serialization); fitted to etcd's Table 4 decline 19282->6076 tps,
    #   which implies ~7 us of leader work per follower per entry.
    net_recv_overhead: float = 3 * US      # per-message receiver CPU

    # ---- crypto (modelled costs; digests elsewhere use real SHA-256) ----
    sig_verify: float = 105 * US           # ECDSA-P256 verify; Fabric spends
    #   42% of saturated block-validation time verifying signatures (S5.2.1)
    hash_base: float = 0.4 * US            # SHA-256 fixed cost
    hash_per_byte: float = 0.0035 * US     # SHA-256 streaming cost/byte
    signature_size: int = 71               # DER-encoded ECDSA signature
    certificate_size: int = 1500           # X.509 cert chain (MSP) carried
    #   in envelopes; fits Fig. 12's ~6.7 kB/txn block floor at 3 endorsers

    # ---- generic KV / storage engine ----
    store_get: float = 15 * US             # Fig. 8b "Storage-get" (TiDB leg)
    store_put: float = 30 * US             # LSM memtable insert + WAL append
    wal_sync: float = 60 * US              # group-committed fsync share

    # ---- Raft (etcd-style, batched) ----
    raft_propose: float = 6 * US           # leader append + bookkeeping/entry
    raft_apply: float = 25 * US            # state-machine apply dispatch;
    #   apply+put ~55 us serialized reproduces etcd's ~19k tps at 3 nodes.
    raft_batch_window: float = 1 * MS      # leader batch-accumulation window
    raft_max_batch: int = 64               # max entries per AppendEntries

    # ---- PBFT / IBFT ----
    bft_message_auth: float = 20 * US      # MAC/signature share per message

    # ---- etcd front end ----
    etcd_request_cpu: float = 32 * US      # gRPC decode + txn mvcc wrap;
    #   with raft costs reproduces ~19k tps at 3 nodes (Table 4).
    etcd_read_cpu: float = 17.5 * US       # serialized range read; ~282k tps
    #   aggregate at 5 nodes (Fig. 4b) when reads fan out to all nodes.

    # ---- TiKV (multi-Raft region store) ----
    tikv_request_cpu: float = 55 * US      # scheduler + latch + raftstore
    tikv_apply: float = 45 * US            # raftstore apply-thread share;
    #   apply+put ~75 us serialized reproduces TiKV's 13507 tps (Fig. 4a)
    tikv_read_cpu: float = 52 * US         # ~94k tps aggregate reads (Fig 4b)

    # ---- TiDB SQL layer (Fig. 8b: parse 16 us, compile 15 us) ----
    sql_parse: float = 16 * US
    sql_compile: float = 15 * US
    tidb_session_cpu: float = 40 * US      # protocol + plan cache + executor
    percolator_prewrite_cpu: float = 120 * US  # lock-CF write + latch
    #   bookkeeping on the raftstore thread (serialized)
    percolator_commit_cpu: float = 120 * US    # commit-record write ditto;
    #   together these fit TiDB's 5159 tps at 5+5 nodes (Fig. 4a)
    tidb_retry_backoff: float = 2 * MS
    tidb_conflict_resolution: float = 12 * MS  # lock-resolution of the
    #   blocking transaction, performed while holding the key latches; the
    #   mechanism behind Fig. 9's disproportionate collapse (5461->173 tps
    #   at 30% aborts, per PingCAP private communication in the paper)

    # ---- Fabric (execute-order-validate) ----
    fabric_client_auth: float = 4294 * US  # Fig. 8b "Authentication"
    fabric_query_pool: int = 24            # concurrent chaincode query slots
    #   per peer; 24/4.76 ms/peer reproduces Fig. 4b's 23809 tps at 5 peers
    fabric_simulate: float = 406 * US      # Fig. 8b "Simulation" (chaincode)
    fabric_endorse: float = 59 * US        # Fig. 8b "Endorsement" (sign)
    fabric_vscc_per_endorsement: float = 85 * US   # sig verify per endorser
    #   (~42% of validation when saturated; fits Table 4's Fabric decline)
    fabric_mvcc_check: float = 25 * US     # per-txn read-set version check
    fabric_commit_per_txn: float = 330 * US  # serial ledger+state write;
    #   fits Fabric ~1300 tps at 5 nodes (Fig. 4a) with the VSCC term
    fabric_block_cut_count: int = 100      # orderer block cut: max txns
    fabric_block_cut_timeout: float = 700 * MS  # Fig. 8a order phase ~700 ms

    # ---- Quorum (order-execute, EVM + MPT) ----
    evm_exec_base: float = 175 * US        # EVM dispatch + storage opcodes
    evm_exec_per_byte: float = 1.18 * US   # calldata/SSTORE cost growth;
    #   with the MPT fit this reproduces Fig. 11a's Quorum curve
    #   (1547 tps at 10 B -> 245 at 1000 B -> 58 at 5000 B)
    mpt_update_base: float = 56 * US       # Fig. 11b: 56 us at 10 B records
    mpt_update_per_byte: float = 0.49 * US  # Fig. 11b: ~2.5 ms at 5000 B
    index_node_op: float = 0.0             # per structural node write at an
    #   engine commit (B-tree page touch, memtable insert, bucket update);
    #   zero by default because that work is already folded into the
    #   calibrated store_put / commit_serial_cost constants — the engines
    #   still *report* node_ops so an ablation can price them explicitly.
    mpt_node_hash_bytes: int = 128         # avg serialized trie-node size
    #   hashed per batched-commit node (branch nodes dominate: 16 x 32 B
    #   child digests amortized over path sharing); used by the Sec. 6
    #   batched-validation ablation, which charges crypto per *actual*
    #   hash computed (MerklePatriciaTrie.hashes_computed deltas) instead
    #   of the per-record Fig. 11b fit.
    quorum_block_interval: float = 50 * MS  # raft block proposal period
    quorum_txpool_cpu: float = 35 * US     # txpool admission + nonce checks
    quorum_max_block_txns: int = 500       # block size cap (gas-limit proxy)
    quorum_query_pool: int = 16            # concurrent eth_call slots/node
    quorum_query_time: float = 3.8 * MS    # EVM read call + JSON-RPC
    #   (Fig. 5b: ~4 ms query latency; Fig. 4b: 19166 tps at 5 nodes)

    # ---- Spanner-like (Fig. 14) ----
    spanner_request_cpu: float = 70 * US
    spanner_lock_hold: float = 7 * MS      # lock span beyond the Paxos
    #   write: client round trip + cleanup; queues hot-key contenders
    #   (Fig. 14's Spanner-below-TiDB result under skew).
    spanner_commit_wait: float = 2 * MS

    # ---- AHL-like sharded blockchain (Fig. 14) ----
    ahl_shard_tps: float = 120.0           # per-shard Fabric-v0.6 PBFT peak;
    #   AHL paper reports O(100) tps per small PBFT shard.
    ahl_reconfig_period: float = 30.0      # epoch length (seconds)
    ahl_reconfig_pause: float = 9.0        # downtime per epoch: ~30% loss

    # -- helpers ----------------------------------------------------------

    def hash_time(self, nbytes: int) -> float:
        """Modelled SHA-256 time for ``nbytes`` of input."""
        return self.hash_base + self.hash_per_byte * nbytes

    def transfer_time(self, nbytes: int) -> float:
        """Wire serialization time for a message of ``nbytes``."""
        return nbytes / self.net_bandwidth

    def mpt_update_time(self, record_size: int) -> float:
        """Per-record MPT path-rebuild cost (Fig. 11b fit)."""
        return self.mpt_update_base + self.mpt_update_per_byte * record_size

    def index_commit_time(self, hashes_computed: int,
                          node_ops: int = 0) -> float:
        """Simulated cost of one storage-engine block commit.

        Per *measured* digest the commit reported, charge the node hash
        **plus one store_put** — an authenticated index
        re-serializes and re-writes every re-hashed node to its backing
        store (geth writes each dirty trie node to LevelDB), which is
        exactly the extra I/O a plain index never pays.  Zero for plain
        engines, so the Fig. 12 authenticated-vs-plain gap is this term
        scaled by the real hash count.  ``node_ops`` (structural writes
        the plain path performs too) charge at :attr:`index_node_op`,
        zero by default — that work is already inside the calibrated
        ``store_put`` / ``commit_serial_cost`` the systems charge.
        """
        per_node = self.hash_time(self.mpt_node_hash_bytes) + self.store_put
        return (hashes_computed * per_node
                + node_ops * self.index_node_op)

    def evm_exec_time(self, record_size: int) -> float:
        return self.evm_exec_base + self.evm_exec_per_byte * record_size

    def wal_replay_time(self, records: int, nbytes: int) -> float:
        """Simulated cost of replaying a WAL during crash recovery.

        Sequential read of ``nbytes`` at disk bandwidth (modelled with
        the network-bandwidth constant — both are ~1 GB/s-class
        sequential streams on the paper's testbed) plus one CRC pass and
        one structure re-insert (:attr:`store_put`) per record.  Charged
        on the recovering node's disk by the chaos injector when a
        crash-restart step closes the recovery loop.
        """
        return (nbytes / self.net_bandwidth
                + records * (self.store_put + self.hash_time(32)))

    def derive(self, **overrides) -> "CostModel":
        """Return a copy with selected constants replaced."""
        return replace(self, **overrides)


DEFAULT_COSTS = CostModel()
