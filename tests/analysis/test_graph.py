"""The conflict-graph toolkit both analyses share, and what it replaced.

``graph.components`` and ``graph.shortest_path`` serve the history
checker (transaction ids) and the template certifier (template names);
neither needs networkx any more, which stays a test-only dependency.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.graph import components, shortest_path

_SRC = Path(__file__).resolve().parents[2] / "src"


def test_components_are_sorted_and_non_trivial():
    succ = {"c": {"a"}, "a": {"b"}, "b": {"c", "d"}, "d": {"d"},
            "e": {"f"}, "f": {"e"}, "g": set()}
    assert components(succ) == [["a", "b", "c"], ["e", "f"]]


def test_shortest_path_follows_iteration_order_and_closes_cycles():
    succ = {"a": {"x": None, "y": None}, "x": {"b": None},
            "y": {"b": None}, "b": {"a": None}}
    assert shortest_path(succ, "a", "b") == ["a", "x", "b"]
    assert shortest_path(succ, "b", "b") == ["b", "a", "x", "b"]
    assert shortest_path({1: {1}}, 1, 1) == [1, 1]
    assert shortest_path({1: {2}, 2: set()}, 2, 1) is None


def test_run_path_imports_no_networkx():
    """Certifying both levels and checking a cyclic history, in a fresh
    interpreter, never imports networkx."""
    script = """
import sys
import repro.bench.harness  # the whole run path, systems included
from repro.analysis import HistoryChecker, certify
from repro.txn.transaction import Op, OpType, Transaction
from repro.workloads import SmallbankConfig, SmallbankWorkload

bank = SmallbankWorkload(SmallbankConfig(num_accounts=10,
                                         query_proportion=0.3))
for level in ("read_committed", "snapshot"):
    assert not certify(bank.templates(), level).robust
checker = HistoryChecker()
for txn_id in (1, 2):
    txn = Transaction(ops=[Op(OpType.UPDATE, "x", b"")])
    txn.txn_id, txn.read_set = txn_id, {"x": 0}
    txn.write_set, txn.commit_version = {"x": b"v"}, txn_id
    txn.mark_committed()
    checker.observe(txn)
assert not checker.check().serializable
assert "networkx" not in sys.modules, "networkx imported"
"""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
