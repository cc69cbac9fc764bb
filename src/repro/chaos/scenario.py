"""Declarative chaos scenarios: timed fault steps over a simulated cluster.

A :class:`Scenario` is a named, seeded-fingerprint-stable schedule of
:class:`Step` objects — each a window (or instant) of one fault class the
paper's design space is sensitive to: network partitions (symmetric and
asymmetric), gray/slow nodes, crash-restart with *real* WAL replay, leader
churn, clock skew against Spanner's commit-wait, and byzantine primary
behaviours (equivocation, censorship, silent leader) for the BFT arms.

Scenarios are pure data: the :class:`repro.chaos.injector.ChaosInjector`
compiles the schedule onto kernel timers at arm time, and the
:mod:`repro.chaos.invariants` layer checks safety/liveness against the
run.  ``Scenario.fingerprint()`` hashes the canonical schedule so chaos
runs carry the same byte-identical determinism discipline as clean runs
(tests/integration/test_run_fingerprints.py).

Node selectors: steps that name a node accept a concrete node name
(``"etcd0"``) or a role selector resolved at fire time — ``"leader"``
(current consensus leader/primary) or ``"engine-host"`` (the node whose
disk hosts the storage engine).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["Step", "Partition", "AsymPartition", "GrayNode", "CrashRestart",
           "LeaderChurn", "ClockSkew", "Equivocate", "Censor", "SilentLeader",
           "Scenario", "STEP_KINDS"]

#: Role selectors resolvable at fire time instead of a concrete node name.
ROLE_SELECTORS = ("leader", "engine-host")


@dataclass(frozen=True)
class Step:
    """Base of every scenario step: ``at`` is the (absolute) start time."""

    at: float

    def describe(self) -> str:
        """Canonical one-line form (stable across runs — fingerprinted)."""
        parts = [f"{f.name}={getattr(self, f.name)!r}"
                 for f in fields(self)]
        return f"{type(self).__name__}({', '.join(parts)})"

    @property
    def ends_at(self) -> float:
        until = getattr(self, "until", None)
        return until if until is not None else self.at

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError(f"{self.describe()}: at must be >= 0")
        until = getattr(self, "until", None)
        if until is not None and until <= self.at:
            raise ValueError(f"{self.describe()}: until must be > at")


@dataclass(frozen=True)
class Partition(Step):
    """Symmetric partition between two node groups, healed at ``until``.

    ``until=None`` leaves the partition in place for the rest of the run
    (the liveness invariant should then be disabled).
    """

    group_a: tuple[str, ...] = ()
    group_b: tuple[str, ...] = ()
    until: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if not self.group_a or not self.group_b:
            raise ValueError(f"{self.describe()}: both groups must be "
                             "non-empty")


@dataclass(frozen=True)
class AsymPartition(Partition):
    """One-way partition: ``group_a``'s traffic to ``group_b`` is lost
    while the reverse direction still flows — the classic asymmetric-link
    failure that breaks protocols assuming bidirectional reachability."""


@dataclass(frozen=True)
class GrayNode(Step):
    """A gray/slow node: every link touching ``node`` gains ``extra_delay``
    seconds of one-way latency and drops ``drop_rate`` of its messages —
    degraded but not dead, the failure mode timeouts misclassify."""

    node: str = ""
    extra_delay: float = 0.005
    drop_rate: float = 0.0
    until: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if not self.node:
            raise ValueError(f"{self.describe()}: node is required")
        if not (0.0 <= self.drop_rate < 1.0):
            raise ValueError(f"{self.describe()}: drop_rate must be in "
                             "[0, 1)")


@dataclass(frozen=True)
class CrashRestart(Step):
    """Crash-stop ``node`` at ``at``; restart it at ``restart_at``.

    The restart is a *real* recovery: the node's inboxes are reset, its
    registered protocol roles re-arm, and — when the node hosts the
    system's storage engine — the engine rebuilds by replaying its WAL
    (``SystemConfig.extras["wal"]`` required), with the replay cost
    charged on the recovering node's disk.
    """

    node: str = ""
    restart_at: float = 0.0

    @property
    def ends_at(self) -> float:
        return self.restart_at

    def validate(self) -> None:
        super().validate()
        if not self.node:
            raise ValueError(f"{self.describe()}: node is required")
        if self.restart_at <= self.at:
            raise ValueError(f"{self.describe()}: restart_at must be > at")


@dataclass(frozen=True)
class LeaderChurn(Step):
    """Repeatedly crash whoever currently leads, every ``period`` seconds
    from ``at`` to ``until``, restarting each victim ``downtime`` later —
    the rolling-leader-failure pattern that stresses election liveness."""

    until: float = 0.0
    period: float = 2.0
    downtime: float = 0.5

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError(f"{self.describe()}: at must be >= 0")
        if self.until <= self.at:
            raise ValueError(f"{self.describe()}: until must be > at")
        if self.downtime >= self.period:
            raise ValueError(f"{self.describe()}: downtime must be < period "
                             "(the victim must restart before the next kill)")


@dataclass(frozen=True)
class ClockSkew(Step):
    """Skew ``node``'s clock-uncertainty bound by ``skew`` seconds.

    Fault surface for Spanner's TrueTime commit-wait: a skewed shard
    leader must wait out the *inflated* uncertainty on every commit, so
    latency rises while correctness holds (the paper's Sec. 4 contrast
    of ordering mechanisms).
    """

    node: str = ""
    skew: float = 0.01
    until: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if not self.node:
            raise ValueError(f"{self.describe()}: node is required")
        if self.skew < 0:
            raise ValueError(f"{self.describe()}: skew must be >= 0")


@dataclass(frozen=True)
class Equivocate(Step):
    """The current BFT primary equivocates (conflicting pre-prepares to
    different replica halves) between ``at`` and ``until``.  Per-digest
    quorums must keep safety; sequences proposed in the window stall, so
    scenarios using this typically set ``expect_liveness=False``."""

    until: Optional[float] = None


@dataclass(frozen=True)
class Censor(Step):
    """The current BFT primary silently censors matching transactions.

    ``match`` is a substring tested against every operation key in the
    proposed item (quorum proposes whole blocks — a block is censored if
    any transaction in it matches; ``match=""`` censors everything).
    Censored proposals simply vanish: their commit events never fire and
    clients time out, which is precisely the observable signature.
    """

    match: str = ""
    until: Optional[float] = None


@dataclass(frozen=True)
class SilentLeader(Step):
    """The current BFT primary goes silent (no pre-prepares, no
    heartbeats) between ``at`` and ``until`` — followers must detect the
    dead primary and vote in a view change to restore liveness."""

    until: Optional[float] = None


#: Every declarative step type the injector compiles.
STEP_KINDS = (Partition, AsymPartition, GrayNode, CrashRestart, LeaderChurn,
              ClockSkew, Equivocate, Censor, SilentLeader)


@dataclass(frozen=True)
class Scenario:
    """A named, deterministic schedule of fault steps.

    ``check_interval`` paces the continuous invariant checker;
    ``settle`` extends the run past the last fault window so
    liveness-after-heal has a window to observe; ``expect_liveness``
    switches the liveness invariant off for scenarios whose faults
    intentionally wedge progress (unhealed partitions, equivocation).
    """

    name: str
    steps: tuple[Step, ...] = ()
    check_interval: float = 0.5
    settle: float = 5.0
    expect_liveness: bool = True

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a scenario needs at least one step")
        for step in self.steps:
            step.validate()

    @property
    def end_time(self) -> float:
        """Time the last fault window closes (heal point)."""
        return max(step.ends_at for step in self.steps)

    @property
    def horizon(self) -> float:
        """Total run length: last heal plus the settle window."""
        return self.end_time + self.settle

    def canonical(self) -> str:
        """Stable textual form of the full schedule."""
        lines = [f"scenario {self.name} check={self.check_interval!r} "
                 f"settle={self.settle!r} liveness={self.expect_liveness}"]
        lines += [step.describe() for step in self.steps]
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical schedule (seeded-run determinism gate)."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()
