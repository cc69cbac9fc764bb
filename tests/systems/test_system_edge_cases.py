"""Edge-case and configuration tests for the system models."""

import re
from pathlib import Path

import pytest

from repro.core.builder import DEDICATED_MODELS, build_system
from repro.core.taxonomy import profile
from repro.sim import Environment
from repro.sim.costs import DEFAULT_COSTS
from repro.systems import (EtcdSystem, FabricSystem, HybridSystem,
                           QuorumSystem, SystemConfig, TiDBSystem,
                           TikvSystem)
from repro.systems.base import EXTRAS_KEYS
from repro.txn import AbortReason, Op, OpType, Transaction, TxnStatus
from repro.workloads import SmallbankConfig, SmallbankWorkload


def test_system_config_derive():
    config = SystemConfig(num_nodes=7)
    derived = config.derive(num_nodes=3, seed=9)
    assert derived.num_nodes == 3 and derived.seed == 9
    assert config.num_nodes == 7  # original untouched


def test_cost_model_derive_immutable():
    costs = DEFAULT_COSTS.derive(sig_verify=1e-3)
    assert costs.sig_verify == 1e-3
    assert DEFAULT_COSTS.sig_verify != 1e-3


def test_etcd_logic_abort_surfaces():
    env = Environment()
    system = EtcdSystem(env, SystemConfig(num_nodes=3))
    system.load({"acct": (5).to_bytes(8, "big")})
    txn = Transaction(ops=[Op(OpType.UPDATE, "acct", b"")],
                      logic=lambda reads: None)
    done = system.submit(txn)
    env.run(until=5)
    assert done.triggered
    assert txn.status is TxnStatus.ABORTED
    assert txn.abort_reason is AbortReason.LOGIC


@pytest.mark.parametrize("cls", [EtcdSystem, TikvSystem])
def test_leaderless_update_aborts_with_a_reason(cls):
    """With every node down no Raft leader takes the write: the update
    aborts as ``NO_LEADER``, not with no reason."""
    env = Environment()
    system = cls(env, SystemConfig(num_nodes=3))
    system.load({"k": b"v"})
    env.run(until=1.0)
    for node in (system.servers if cls is EtcdSystem
                 else system.cluster.nodes):
        node.crash()
    env.run(until=2.0)
    txn = Transaction(ops=[Op(OpType.WRITE, "k", b"w")])
    done = system.submit(txn)
    env.run(until=8.0)
    assert done.triggered
    assert txn.status is TxnStatus.ABORTED
    assert txn.abort_reason is AbortReason.NO_LEADER


def test_quorum_multi_op_transaction_applies_atomically():
    env = Environment()
    system = QuorumSystem(env, SystemConfig(num_nodes=3))
    system.load({"a": b"0", "b": b"0"})
    txn = Transaction(ops=[Op(OpType.WRITE, "a", b"1"),
                           Op(OpType.WRITE, "b", b"2")])
    system.submit(txn)
    env.run(until=10)
    assert txn.status is TxnStatus.COMMITTED
    assert system.state.get("a")[0] == b"1"
    assert system.state.get("b")[0] == b"2"


def test_quorum_smallbank_constraint_enforced_end_to_end():
    """An overdraft must abort in-system and leave balances untouched."""
    env = Environment()
    system = QuorumSystem(env, SystemConfig(num_nodes=3))
    wl = SmallbankWorkload(SmallbankConfig(num_accounts=4, seed=1))
    records = wl.initial_records()
    system.load(records)
    src, dst = wl.checking(0), wl.checking(1)

    def drain_everything(reads):
        from repro.workloads import decode_balance, encode_balance
        balance = decode_balance(reads[src])
        if balance < 10 ** 9:       # absurd amount: must fail
            return None
        return {src: encode_balance(0)}

    txn = Transaction(ops=[Op(OpType.UPDATE, src, b""),
                           Op(OpType.UPDATE, dst, b"")],
                      logic=drain_everything)
    system.submit(txn)
    env.run(until=10)
    assert txn.status is TxnStatus.ABORTED
    assert system.state.get(src)[0] == records[src]


def test_fabric_read_only_txn_through_update_path_commits():
    """A read-only transaction going through ordering must not conflict."""
    env = Environment()
    system = FabricSystem(env, SystemConfig(num_nodes=3))
    system.load({"k": b"v"})
    txn = Transaction.read("k")
    system.submit(txn)
    env.run(until=10)
    assert txn.status is TxnStatus.COMMITTED


def test_tidb_read_only_txn_skips_2pc():
    env = Environment()
    system = TiDBSystem(env, SystemConfig(num_nodes=3))
    system.load({"k": b"v"})
    txn = Transaction.read("k")
    done = system.submit(txn)
    env.run(until=5)
    assert done.triggered and txn.status is TxnStatus.COMMITTED
    assert system.pstore.prewrites == 0  # no write path taken


def test_tidb_multi_key_commit_is_atomic():
    env = Environment()
    system = TiDBSystem(env, SystemConfig(num_nodes=3))
    system.load({"x": b"0", "y": b"0"})
    txn = Transaction(ops=[Op(OpType.UPDATE, "x", b"1"),
                           Op(OpType.UPDATE, "y", b"1")])
    system.submit(txn)
    env.run(until=10)
    assert txn.status is TxnStatus.COMMITTED
    x_val, x_ver = system.cluster.state.get("x")
    y_val, y_ver = system.cluster.state.get("y")
    assert x_val == b"1" and y_val == b"1"
    assert not system.pstore.locked_keys()  # no lock residue


def test_fabric_num_orderers_fixed():
    env = Environment()
    system = FabricSystem(env, SystemConfig(num_nodes=7))
    orderer_nodes = [n for n in system.nodes
                     if n.name.startswith("orderer")]
    assert len(orderer_nodes) == 3  # fixed while peers scale (paper 4.2)
    peer_nodes = [n for n in system.nodes if n.name.startswith("peer")]
    assert len(peer_nodes) == 7


def test_quorum_exec_cost_grows_with_record_size():
    env = Environment()
    system = QuorumSystem(env, SystemConfig(num_nodes=3))
    small = system._exec_cost(Transaction.write("k", b"x" * 10))
    large = system._exec_cost(Transaction.write("k", b"x" * 5000))
    assert large > 5 * small


def test_ibft_quorum_system_uses_3f_plus_1():
    env = Environment()
    system = QuorumSystem(env, SystemConfig(num_nodes=7), consensus="ibft")
    replica = next(iter(system.group.replicas.values()))
    assert replica.f == 2
    assert replica.quorum == 5


# -- SystemConfig.extras: one check, two entry points ---------------------------
#
# What an ``extras`` mapping means on a model is decided by
# TransactionalSystem from two class attributes.  The table below derives
# accept/reject from those same attributes, so it cannot drift from the
# check, and drives both entry points so neither can be a bypass.

_SYSTEMS = sorted(DEDICATED_MODELS) + ["veritas", "falcondb"]


def _model(name):
    return DEDICATED_MODELS.get(name, HybridSystem)


#: case -> (extras, accepted-iff predicate over the model class, message)
_EXTRAS_CASES = {
    "typo": ({"indx": "lsm"}, lambda cls: False,
             r"unknown SystemConfig.extras key\(s\) \['indx'\]; known: "
             + re.escape(str(list(EXTRAS_KEYS)))),
    "bogus-level": ({"isolation": "bogus"}, lambda cls: False,
                    "unknown isolation level 'bogus'"),
    "weak-level": ({"isolation": "snapshot"},
                   lambda cls: cls.weak_isolation,
                   "isolation='snapshot' is not supported on '{name}'; "
                   "weakened isolation is wired into "
                   r"\['etcd', 'quorum', 'tidb', 'tikv'\]"),
    "index": ({"index": "lsm+mpt"},
              lambda cls: cls.storage_engine is not None,
              "'{name}' builds no storage engine"),
    "wal-only": ({"wal": True},
                 lambda cls: cls.storage_engine == "always",
                 "'{name}' builds no storage engine|`wal` needs an `index`"),
}


def _via_builder(name, config):
    return build_system(Environment(), name, config)


def _via_constructor(name, config):
    cls = DEDICATED_MODELS.get(name)
    if cls is not None:
        return cls(Environment(), config)
    return HybridSystem(Environment(), profile(name), config)


@pytest.mark.parametrize("entry", [_via_builder, _via_constructor],
                         ids=["builder", "constructor"])
@pytest.mark.parametrize("case", sorted(_EXTRAS_CASES))
@pytest.mark.parametrize("name", _SYSTEMS)
def test_extras_accepted_or_rejected_per_class_attributes(name, case, entry):
    extras, accepted, message = _EXTRAS_CASES[case]
    config = SystemConfig(num_nodes=6, extras=dict(extras))
    if accepted(_model(name)):
        system = entry(name, config)
        # the configuration named is the configuration that runs
        if "index" in extras:
            assert system.engine.authenticated
        if "wal" in extras:
            assert system.engine.wal is not None
        if "isolation" in extras:
            assert system.isolation == "snapshot"
            assert system.history is not None
    else:
        with pytest.raises(ValueError, match=message.format(name=name)):
            entry(name, config)


def test_wal_needs_an_index_where_the_engine_is_on_request():
    for cls in (QuorumSystem, FabricSystem):
        assert cls.storage_engine == "on_request"
        with pytest.raises(ValueError, match="`wal` needs an `index`"):
            cls(Environment(), SystemConfig(extras={"wal": True}))
        system = cls(Environment(),
                     SystemConfig(extras={"wal": True, "index": "lsm"}))
        assert system.engine.wal is not None
        assert system._wal_cost == system.costs.wal_sync


def test_history_is_a_real_attribute_everywhere():
    """``history``/``scheduler``/``isolation`` exist on every model;
    explicit "serializable" is accepted anywhere and attaches the
    checker only where a weak path feeds it."""
    for name in _SYSTEMS:
        plain = _via_builder(name, SystemConfig(num_nodes=6))
        assert plain.history is None and plain.scheduler is None
        assert plain.isolation == "serializable"
        explicit = _via_builder(name, SystemConfig(
            num_nodes=6, extras={"isolation": "serializable"}))
        assert (explicit.history is not None) is _model(name).weak_isolation


def _readme_extras_table() -> str:
    """The README "Configuring a system" table, from the class attributes."""
    everyone = sorted(DEDICATED_MODELS) + ["hybrids"]

    def names(pred):
        picked = [n for n in everyone if pred(_model(n))]
        return "every system" if picked == everyone else ", ".join(picked)
    rows = [
        ("`index`", names(lambda c: c.storage_engine is not None)),
        ("`wal`", names(lambda c: c.storage_engine == "always")
         + "; only together with an `index`: "
         + names(lambda c: c.storage_engine == "on_request")),
        ("`isolation`", '`"serializable"`: ' + names(lambda c: True)
         + '; `"snapshot"` / `"read_committed"`: '
         + names(lambda c: c.weak_isolation)),
        ("`scenario`", names(lambda c: True)),
    ]
    lines = ["| `extras` key | accepted by |", "|---|---|"]
    lines += [f"| {key} | {systems} |" for key, systems in rows]
    return "\n".join(lines)


def test_readme_extras_table_matches_class_attributes():
    readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
    assert _readme_extras_table() in readme
