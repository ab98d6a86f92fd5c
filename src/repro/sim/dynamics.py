"""Dynamic-load simulation: drift, flash crowds, periodic rebalancing.

The paper assumes "the load on a virtual server is stable over the
timescale it takes for the load balancing algorithm to perform".  This
module stresses that assumption: virtual-server loads evolve between
balancing rounds (multiplicative drift plus optional flash crowds) and
the balancer runs periodically; the trace records the imbalance level
over time so the stability requirement can be quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.balancer import LoadBalancer
from repro.core.report import BalanceReport
from repro.dht.chord import ChordRing
from repro.exceptions import SimulationError
from repro.recovery.manager import RecoveryManager
from repro.util.rng import ensure_rng
from repro.util.stats import gini_coefficient


@dataclass
class EpochStats:
    """State of the system at one epoch boundary."""

    epoch: int
    heavy_before: int
    heavy_after: int
    moved_load: float
    gini_before: float
    gini_after: float


@dataclass
class DynamicsTrace:
    """Full history of a dynamic-load run."""

    epochs: list[EpochStats] = field(default_factory=list)
    reports: list[BalanceReport] = field(default_factory=list)


class LoadDynamics:
    """Evolves virtual-server loads between balancing rounds.

    Parameters
    ----------
    drift_sigma:
        Standard deviation of the per-epoch log-normal multiplicative
        drift applied to every virtual server's load (0 disables drift).
    flash_crowd_prob:
        Per-epoch probability that one random virtual server's load is
        multiplied by ``flash_crowd_factor`` (a sudden hotspot).
    flash_crowd_factor:
        Hotspot multiplier.
    """

    def __init__(
        self,
        drift_sigma: float = 0.1,
        flash_crowd_prob: float = 0.0,
        flash_crowd_factor: float = 10.0,
        rng: int | None | np.random.Generator = None,
    ):
        if drift_sigma < 0:
            raise SimulationError("drift_sigma must be non-negative")
        if not 0.0 <= flash_crowd_prob <= 1.0:
            raise SimulationError("flash_crowd_prob must be in [0, 1]")
        if flash_crowd_factor <= 0:
            raise SimulationError("flash_crowd_factor must be positive")
        self.drift_sigma = drift_sigma
        self.flash_crowd_prob = flash_crowd_prob
        self.flash_crowd_factor = flash_crowd_factor
        self.gen = ensure_rng(rng)

    def step(self, ring: ChordRing) -> None:
        """Apply one epoch of load evolution to every virtual server."""
        vss = ring.virtual_servers
        if self.drift_sigma > 0:
            factors = np.exp(
                self.gen.normal(0.0, self.drift_sigma, size=len(vss))
            )
            for vs, f in zip(vss, factors):
                vs.load *= float(f)
        if self.flash_crowd_prob > 0 and self.gen.random() < self.flash_crowd_prob:
            victim = vss[int(self.gen.integers(len(vss)))]
            victim.load *= self.flash_crowd_factor


def run_dynamic_simulation(
    balancer: LoadBalancer | RecoveryManager,
    dynamics: LoadDynamics,
    epochs: int,
) -> DynamicsTrace:
    """Alternate load evolution and balancing for ``epochs`` epochs.

    ``balancer`` may be a plain balancer or a
    :class:`~repro.recovery.manager.RecoveryManager` wrapping one.  In
    the managed case every epoch's round runs under crash recovery:
    plan-scheduled crash points are caught, the stack is restored and
    the round re-run, so the trace always records ``epochs`` completed
    rounds.  Load evolution targets the *current* ring each epoch (a
    restart rebuilds the balancer object) and is never replayed — the
    drifted loads land in the pre-round checkpoint, so a crashed round
    re-runs against exactly the loads it first saw.
    """
    if epochs < 1:
        raise SimulationError(f"epochs must be >= 1, got {epochs}")
    trace = DynamicsTrace()
    for epoch in range(epochs):
        if isinstance(balancer, RecoveryManager):
            ring = balancer.balancer.ring
        else:
            ring = balancer.ring
        dynamics.step(ring)
        report = balancer.run_round()
        trace.reports.append(report)
        trace.epochs.append(
            EpochStats(
                epoch=epoch,
                heavy_before=report.heavy_before,
                heavy_after=report.heavy_after,
                moved_load=report.moved_load,
                gini_before=gini_coefficient(report.unit_loads_before),
                gini_after=gini_coefficient(report.unit_loads_after),
            )
        )
    return trace
