"""Chaos engineering for the simulated design space.

Declarative fault schedules (:mod:`.scenario`), a compiler onto the
simulation primitives (:mod:`.injector`), continuously-checked safety and
liveness invariants (:mod:`.invariants`), and a one-call run harness with
deterministic chaos fingerprints (:mod:`.harness`).
"""

from .harness import ChaosResult, CONSERVED_PROCEDURES, run_chaos_point
from .injector import ChaosInjector, discover_groups
from .invariants import (ConservedBalances, Invariant, InvariantSuite,
                         LivenessAfterHeal, NoAnomalies, NoLedgerFork,
                         PrefixConsistency, default_invariants)
from .scenario import (AsymPartition, Censor, ClockSkew, CrashRestart,
                       Equivocate, GrayNode, LeaderChurn, Partition,
                       Scenario, SilentLeader, Step, STEP_KINDS)

__all__ = [
    "Scenario", "Step", "STEP_KINDS", "Partition", "AsymPartition",
    "GrayNode", "CrashRestart", "LeaderChurn", "ClockSkew", "Equivocate",
    "Censor", "SilentLeader",
    "ChaosInjector", "discover_groups",
    "Invariant", "InvariantSuite", "NoLedgerFork", "PrefixConsistency",
    "ConservedBalances", "LivenessAfterHeal", "NoAnomalies",
    "default_invariants",
    "ChaosResult", "run_chaos_point", "CONSERVED_PROCEDURES",
]
