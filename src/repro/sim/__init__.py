"""Simulation harness.

Provides the round/message-level timing model behind the paper's
``O(log_K N)`` claims, load dynamics over balancing epochs, and churn
processes that stress the K-nary tree's self-repair.
"""

from repro.sim.churn import ChurnProcess, ChurnTrace
from repro.sim.dynamics import (
    DynamicsTrace,
    EpochStats,
    LoadDynamics,
    run_dynamic_simulation,
)
from repro.sim.protocol import TimedProtocolResult, simulate_timed_round
from repro.sim.runner import PhaseTimings, measure_phase_rounds, sweep_phase_rounds

__all__ = [
    "ChurnProcess",
    "ChurnTrace",
    "DynamicsTrace",
    "EpochStats",
    "LoadDynamics",
    "run_dynamic_simulation",
    "PhaseTimings",
    "measure_phase_rounds",
    "sweep_phase_rounds",
    "TimedProtocolResult",
    "simulate_timed_round",
]
