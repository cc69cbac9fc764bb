"""Safety and liveness invariants checked against chaos runs.

Safety invariants hold *throughout* a run — under partitions, crashes and
byzantine primaries alike: committed ledgers never fork, committed
prefixes are never rewritten, SmallBank money is conserved.  The liveness
invariant only binds after the last fault window heals (and is switched
off entirely for scenarios whose faults intentionally wedge progress —
``Scenario.expect_liveness=False``).

An :class:`InvariantSuite` runs every invariant continuously (a checker
process paced by ``Scenario.check_interval``) and once more after the run
ends; violations carry the simulated time they were observed, so they are
deterministic and fingerprintable like everything else.
"""

from __future__ import annotations

from typing import Any, Optional

from .injector import discover_groups
from .scenario import Scenario

__all__ = ["Invariant", "NoLedgerFork", "PrefixConsistency",
           "ConservedBalances", "LivenessAfterHeal", "NoAnomalies",
           "InvariantSuite", "default_invariants"]


class Invariant:
    """One checkable property of a running system."""

    name = "abstract"

    def setup(self, system: Any, scenario: Scenario) -> None:
        """Capture baselines before the run starts."""

    def check(self, system: Any, now: float) -> Optional[str]:
        """Continuous check; return a violation message or ``None``."""
        return None

    def final(self, system: Any, now: float) -> Optional[str]:
        """End-of-run check; defaults to one last continuous check."""
        return self.check(system, now)


def _live_replicas(group) -> list:
    return [r for r in group.replicas.values() if not r.node.crashed]


class NoLedgerFork(Invariant):
    """No two replicas ever commit different items at the same position.

    Covers the system ledger (hash chain must verify) and every
    consensus group: the common committed prefix across live replicas
    must be identical — compared incrementally (each committed position
    is examined once), so continuous checking stays O(new entries).
    """

    name = "no-ledger-fork"

    def setup(self, system: Any, scenario: Scenario) -> None:
        self._groups = discover_groups(system)
        self._checked = [0] * len(self._groups)

    def check(self, system: Any, now: float) -> Optional[str]:
        ledger = getattr(system, "ledger", None)
        if ledger is not None and not ledger.verify():
            return "ledger hash chain broken"
        for gi, group in enumerate(self._groups):
            replicas = _live_replicas(group)
            if len(replicas) < 2:
                continue
            base = replicas[0]
            if hasattr(base, "commit_index"):          # raft family
                upto = min(r.commit_index for r in replicas)
                for idx in range(self._checked[gi], upto):
                    item = base.log[idx].item
                    for other in replicas[1:]:
                        theirs = other.log[idx].item
                        if theirs is not item and theirs != item:
                            return (f"raft fork at index {idx + 1}: "
                                    f"{base.name} vs {other.name}")
                self._checked[gi] = upto
            elif hasattr(base, "executed_seq"):        # pbft family
                upto = min(r.executed_seq for r in replicas)
                for seq in range(self._checked[gi] + 1, upto + 1):
                    items = base._history.get(seq)
                    for other in replicas[1:]:
                        theirs = other._history.get(seq)
                        if (items is not None and theirs is not None
                                and theirs is not items and theirs != items):
                            return (f"bft fork at seq {seq}: "
                                    f"{base.name} vs {other.name}")
                self._checked[gi] = upto
        return None


class PrefixConsistency(Invariant):
    """Committed history only ever *extends*: the ledger never shrinks or
    rewrites a block it already committed, and every replica's commit
    point is monotone — reads of the committed prefix stay consistent
    across checks (the paper's ledger-database safety baseline)."""

    name = "prefix-consistency"

    def setup(self, system: Any, scenario: Scenario) -> None:
        self._groups = discover_groups(system)
        self._height = 0
        self._tip = None
        self._marks: dict[int, int] = {}    # id(replica) -> commit point

    def check(self, system: Any, now: float) -> Optional[str]:
        ledger = getattr(system, "ledger", None)
        if ledger is not None:
            if ledger.height < self._height:
                return (f"ledger shrank: {ledger.height} < {self._height}")
            if self._height and self._tip is not None:
                digest = ledger.blocks[self._height - 1].digest()
                if digest != self._tip:
                    return f"committed block {self._height} rewritten"
            self._height = ledger.height
            if ledger.height:
                self._tip = ledger.blocks[ledger.height - 1].digest()
        for group in self._groups:
            for replica in group.replicas.values():
                point = getattr(replica, "commit_index",
                                getattr(replica, "executed_seq", 0))
                prev = self._marks.get(id(replica), 0)
                if point < prev:
                    return (f"{replica.name} commit point moved backwards: "
                            f"{point} < {prev}")
                self._marks[id(replica)] = point
        return None


class ConservedBalances(Invariant):
    """SmallBank money conservation: the sum of all checking and savings
    balances equals the loaded total at every atomic point.

    Only meaningful when the workload is restricted to the conserving
    procedures (``send_payment``, ``amalgamate`` — see
    ``SmallbankConfig.procedures``); deposits and write-checks change the
    total by design.
    """

    name = "conserved-balances"

    def setup(self, system: Any, scenario: Scenario) -> None:
        self._initial = self._total(system)

    @staticmethod
    def _total(system: Any) -> Optional[int]:
        from ..workloads.smallbank import decode_balance
        state = getattr(system, "state", None)
        if state is None:
            cluster = getattr(system, "cluster", None)
            state = getattr(cluster, "state", None) if cluster else None
        if state is None:
            return None
        total = 0
        for key in state.keys():
            if key.startswith(("checking", "savings")):
                value, _version = state.get(key)
                total += decode_balance(value)
        return total

    def check(self, system: Any, now: float) -> Optional[str]:
        total = self._total(system)
        if total is None or self._initial is None:
            return None
        if total != self._initial:
            return (f"balance sum drifted: {total} != {self._initial} "
                    f"(loaded)")
        return None


class LivenessAfterHeal(Invariant):
    """The system makes progress after the last fault window heals.

    Progress is committed work: ledger transactions where the system
    keeps a ledger, otherwise state-machine writes.  The baseline is
    snapshotted exactly at ``scenario.end_time`` (a kernel timer, so
    it is deterministic); the final check requires the metric to have
    advanced past it.
    """

    name = "liveness-after-heal"

    def setup(self, system: Any, scenario: Scenario) -> None:
        self._baseline: Optional[int] = None
        env = system.env

        def snapshot(_arg: Any) -> None:
            self._baseline = self._metric(system)

        env.after(max(0.0, scenario.end_time - env.now), snapshot)

    @staticmethod
    def _metric(system: Any) -> int:
        ledger = getattr(system, "ledger", None)
        if ledger is not None:
            return ledger.total_txns()
        state = getattr(system, "state", None)
        if state is None:
            cluster = getattr(system, "cluster", None)
            state = getattr(cluster, "state", None) if cluster else None
        return state.writes if state is not None else 0

    def final(self, system: Any, now: float) -> Optional[str]:
        if self._baseline is None:
            return "run ended before the heal point — no liveness window"
        metric = self._metric(system)
        if metric <= self._baseline:
            return (f"no progress after heal: {metric} committed vs "
                    f"{self._baseline} at heal time")
        return None


class NoAnomalies(Invariant):
    """The run's committed history admits no isolation anomalies.

    Final-only (building the multi-version serialization graph mid-run
    would re-walk the whole history every check interval).  Requires a
    system built with ``extras["isolation"]`` — that is what attaches
    the online history checker.  Attach this when the robustness
    certifier declares the (workload, isolation) pair robust: the
    certificate predicts a clean history even under faults, and this
    invariant holds the run to it.
    """

    name = "no-anomalies"

    def check(self, system: Any, now: float) -> Optional[str]:
        return None

    def final(self, system: Any, now: float) -> Optional[str]:
        history = getattr(system, "history", None)
        if history is None:
            return ("system has no history checker — build it with "
                    "extras={'isolation': ...} to certify anomalies")
        report = history.check()
        nonzero = {k: v for k, v in report.anomalies.items() if v}
        if nonzero:
            return f"history admits anomalies: {nonzero}"
        return None


class InvariantSuite:
    """Runs invariants continuously during a run and once at the end."""

    def __init__(self, invariants: list[Invariant], scenario: Scenario):
        self.invariants = list(invariants)
        self.scenario = scenario
        self.violations: list[str] = []
        self.checks = 0
        self._system = None

    def setup(self, system: Any) -> None:
        self._system = system
        for inv in self.invariants:
            inv.setup(system, self.scenario)

    def start(self) -> None:
        """Spawn the continuous checker (after setup, before the run)."""
        env = self._system.env
        env.process(self._checker(env), name="chaos-invariants")

    def _checker(self, env):
        while True:
            yield env.timeout(self.scenario.check_interval)
            self.checks += 1
            self._run(lambda inv: inv.check(self._system, env.now), env.now)

    def finalize(self) -> None:
        """End-of-run pass (call after the driver returns)."""
        now = self._system.env.now
        self._run(lambda inv: inv.final(self._system, now), now,
                  final=True)

    def _run(self, fn, now: float, final: bool = False) -> None:
        for inv in self.invariants:
            if (inv.name == LivenessAfterHeal.name
                    and not self.scenario.expect_liveness):
                continue
            message = fn(inv)
            if message:
                stage = "final" if final else "check"
                self.violations.append(
                    f"{now:.6f} [{inv.name}/{stage}] {message}")

    @property
    def ok(self) -> bool:
        return not self.violations


def default_invariants(conserved: bool = False,
                       anomalies: bool = False) -> list[Invariant]:
    """The standard chaos suite: safety always, conservation on demand.

    ``anomalies=True`` adds the final-only history audit — only for
    runs built with ``extras["isolation"]`` on a certified-robust
    (workload, level) pair.
    """
    invariants: list[Invariant] = [NoLedgerFork(), PrefixConsistency(),
                                   LivenessAfterHeal()]
    if conserved:
        invariants.append(ConservedBalances())
    if anomalies:
        invariants.append(NoAnomalies())
    return invariants
