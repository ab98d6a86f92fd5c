"""Workload generation: virtual-server loads, node capacities, scenarios.

Mirrors the paper's experiment setup (Section 5.1): virtual-server loads
drawn from a Gaussian or Pareto distribution parameterised on the
identifier-space fraction each VS owns, and node capacities drawn from a
Gnutella-like profile.
"""

from repro.workloads.loads import (
    GaussianLoadModel,
    LoadModel,
    ParetoLoadModel,
    assign_loads,
)
from repro.workloads.capacity import GnutellaCapacityProfile
from repro.workloads.drift import apply_load_drift, window_virtual_servers
from repro.workloads.queries import QueryTrace, QueryWorkload
from repro.workloads.scenario import (
    Scenario,
    build_scenario,
    proportional_vs_counts,
)

__all__ = [
    "proportional_vs_counts",
    "QueryTrace",
    "QueryWorkload",
    "LoadModel",
    "GaussianLoadModel",
    "ParetoLoadModel",
    "assign_loads",
    "apply_load_drift",
    "window_virtual_servers",
    "GnutellaCapacityProfile",
    "Scenario",
    "build_scenario",
]
