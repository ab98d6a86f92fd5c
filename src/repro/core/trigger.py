"""When to balance: periodic vs imbalance-triggered policies.

The paper runs its phases "periodically at an interval T" but leaves the
policy open.  In a live system, running the full four-phase protocol
when nothing is wrong wastes control traffic; this module adds the
natural policy layer:

* :class:`PeriodicPolicy` — balance every epoch (the paper's implicit
  behaviour);
* :class:`ImbalanceTriggeredPolicy` — measure LBI every epoch
  (O(log_K N) rounds, but O(N) messages: every node reports) and run
  VSA/VST only when the measured heavy fraction exceeds a threshold.

:func:`run_with_policy` drives either policy against a
:class:`~repro.sim.dynamics.LoadDynamics` process and accounts what each
epoch actually cost, so the policies can be compared head to head.  The
measurement is the round's own LBI fold over the persistent tree
(:meth:`~repro.core.balancer.LoadBalancer.measure_lbi`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.balancer import LoadBalancer
from repro.core.classification import classification_masks
from repro.exceptions import ConfigError
from repro.sim.dynamics import LoadDynamics


@dataclass
class PolicyEpoch:
    """What one epoch under a balancing policy did and cost."""

    epoch: int
    heavy_fraction: float
    balanced: bool
    moved_load: float = 0.0
    transfers: int = 0
    control_messages: int = 0


@dataclass
class PolicyTrace:
    epochs: list[PolicyEpoch] = field(default_factory=list)

    @property
    def rounds_run(self) -> int:
        return sum(1 for e in self.epochs if e.balanced)

    @property
    def total_moved(self) -> float:
        return sum(e.moved_load for e in self.epochs)

    @property
    def total_control_messages(self) -> int:
        return sum(e.control_messages for e in self.epochs)

    @property
    def max_heavy_fraction(self) -> float:
        return max((e.heavy_fraction for e in self.epochs), default=0.0)


class BalancingPolicy(Protocol):
    """Anything that can decide whether an epoch should run VSA/VST."""

    def should_balance(self, heavy_fraction: float) -> bool:
        """Whether the full balancing machinery should run this epoch."""
        ...


class PeriodicPolicy:
    """Balance unconditionally every epoch."""

    def should_balance(self, heavy_fraction: float) -> bool:
        return True


class ImbalanceTriggeredPolicy:
    """Balance only when the heavy fraction exceeds ``threshold``."""

    def __init__(self, threshold: float = 0.1) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold

    def should_balance(self, heavy_fraction: float) -> bool:
        return heavy_fraction > self.threshold


def run_with_policy(
    balancer: LoadBalancer,
    dynamics: LoadDynamics,
    policy: BalancingPolicy,
    epochs: int,
) -> PolicyTrace:
    """Drive load dynamics under a balancing policy.

    Every epoch: loads evolve, then the LBI measurement runs, its
    reporters drawn from a generator seeded with the epoch number; the
    full VSA/VST machinery runs only when the policy says so.  The
    measurement cost is charged every epoch, the balancing cost only on
    triggered epochs.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    trace = PolicyTrace()
    for epoch in range(epochs):
        dynamics.step(balancer.ring)

        # Measurement pass: LBI + classification only.
        arrays, system, agg_trace = balancer.measure_lbi(epoch)
        _, heavy, _ = classification_masks(
            arrays.capacities, arrays.loads, system, balancer.config.epsilon
        )
        heavy_fraction = int(np.count_nonzero(heavy)) / len(arrays)

        row = PolicyEpoch(
            epoch=epoch,
            heavy_fraction=heavy_fraction,
            balanced=policy.should_balance(heavy_fraction),
            control_messages=agg_trace.total_messages,
        )
        if row.balanced:
            report = balancer.run_round()
            row.moved_load = report.moved_load
            row.transfers = len(report.transfers)
            row.control_messages += (
                report.aggregation.total_messages + report.vsa.upward_messages
            )
        trace.epochs.append(row)
    return trace
