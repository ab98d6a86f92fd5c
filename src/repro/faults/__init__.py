"""Fault injection and degraded-mode recovery for the balancing protocol.

The paper's reliability story (Section 3.1.1) is that the K-nary tree
self-repairs and the balancer keeps working under churn.  This package
makes that claim *testable*: a seeded :class:`FaultPlan` describes a
failure environment (message drop/delay/duplication, mid-round node
crashes, transfer aborts), a :class:`FaultInjector` turns it into a
deterministic fault sequence, and a :class:`RetryPolicy` bounds the
recovery machinery (exponential backoff with seeded jitter, per-phase
timeout budgets, an explicit staleness bound for reused LBI aggregates)
that lets a round survive it.

Typical use::

    from repro.app import P2PSystem, SystemConfig
    from repro.faults import FaultPlan

    system = P2PSystem(
        SystemConfig(initial_nodes=32, seed=7),
        faults=FaultPlan(seed=3, drop=0.1, crash_mid_round=1),
    )
    report = system.rebalance()          # completes; conservation holds
    print(report.fault_stats.to_dict())  # retries, rollbacks, crashes

Determinism contract: the fault sequence — and therefore the final
loads — is a pure function of ``(scenario seed, plan)``.  Two runs with
identical seeds inject byte-for-byte identical faults
(:meth:`FaultInjector.signature` is the witness).
"""

from repro.faults.injector import (
    FaultInjector,
    FaultKind,
    InjectedFault,
    ensure_injector,
)
from repro.faults.plan import (
    CRASH_SITES,
    NULL_PLAN,
    CrashPoint,
    FaultPlan,
    PartitionSpec,
)
from repro.faults.retry import (
    DeliveryOutcome,
    RetryBudget,
    RetryPolicy,
    deliver_with_retry,
)
from repro.faults.stats import FaultRoundStats

__all__ = [
    "CRASH_SITES",
    "NULL_PLAN",
    "CrashPoint",
    "DeliveryOutcome",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRoundStats",
    "InjectedFault",
    "PartitionSpec",
    "RetryBudget",
    "RetryPolicy",
    "deliver_with_retry",
    "ensure_injector",
]
