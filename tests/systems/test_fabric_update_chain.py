"""Fabric's update path, one seeded scenario per exit.

A submitted transaction leaves the execute-order-validate path in one of
four ways: it commits; its endorsements disagree (``INCONSISTENT_READ``);
its chaincode logic refuses it (``LOGIC``); or ordering rejects the
envelope (``COORDINATOR_ABORT``).  Each test pins the literal
``(env.now at done, heap entries pushed by then, status, abort_reason)``
and checks that no commit waiter is left behind, so a change to the
path's stages or their schedule shows up here as a different instant
or push count, even where it leaves every simulated result unchanged.
"""

from repro.sim import Environment
from repro.sim.kernel import subscribe
from repro.systems import FabricSystem, SystemConfig
from repro.txn import AbortReason, Op, OpType, Transaction, TxnStatus


def _run(txn, prepare=None):
    env = Environment()
    system = FabricSystem(env, SystemConfig(num_nodes=3, seed=1))
    system.load({"k": b"v"})
    if prepare is not None:
        prepare(system)
    done = system.submit(txn)
    seen = []
    subscribe(done, lambda ev: seen.append(
        (env.now, env._seq, ev.value.status, ev.value.abort_reason)))
    env.run(until=5)
    assert len(seen) == 1
    assert system._waiters == {}
    return system, seen[0]


def test_commit_exit():
    system, outcome = _run(Transaction.update("k", b"w"))
    assert outcome == (0.7032702325370727, 263, TxnStatus.COMMITTED, None)
    assert system.inconsistent_aborts == 0
    assert system.peers[0].state.get("k")[0] == b"w"


def test_inconsistent_read_exit():
    def bump(system):
        # One peer's state moves on before the proposal reaches it.
        system.peers[1].state.put("k", b"bumped", 1)

    system, outcome = _run(Transaction.update("k", b"w"), bump)
    assert outcome == (0.0008901599999999999, 41, TxnStatus.ABORTED,
                       AbortReason.INCONSISTENT_READ)
    assert system.inconsistent_aborts == 1


def test_logic_exit():
    txn = Transaction(ops=[Op(OpType.UPDATE, "k", b"")],
                      logic=lambda reads: None)
    system, outcome = _run(txn)
    assert outcome == (0.0008901439999999999, 41, TxnStatus.ABORTED,
                       AbortReason.LOGIC)
    assert system.inconsistent_aborts == 0


def test_coordinator_abort_exit():
    def crash_orderer_leader(system):
        # No live Raft leader: the envelope's propose fails NotLeader.
        system.ordering.orderer_nodes[0].crash()

    system, outcome = _run(Transaction.update("k", b"w"),
                           crash_orderer_leader)
    assert outcome == (0.0011003679999999998, 28, TxnStatus.ABORTED,
                       AbortReason.COORDINATOR_ABORT)
    assert system.inconsistent_aborts == 0
