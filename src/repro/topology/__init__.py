"""Synthetic Internet topologies and distance queries.

The paper evaluates on two GT-ITM transit-stub topologies of ~5000
vertices ("ts5k-large" and "ts5k-small") with interdomain hops costing 3
latency units and intradomain hops 1.  This package regenerates such
topologies from the published parameters, provides a distance oracle
over the weighted graph (cached Dijkstra rows, and exact pair queries
through domain separators), and selects landmark nodes for proximity
measurement.
"""

from repro.topology.graph import Topology
from repro.topology.transit_stub import (
    TransitStubParams,
    TS5K_LARGE,
    TS5K_SMALL,
    generate_transit_stub,
)
from repro.topology.routing import DistanceOracle
from repro.topology.landmarks import select_landmarks, landmark_vectors

__all__ = [
    "Topology",
    "TransitStubParams",
    "TS5K_LARGE",
    "TS5K_SMALL",
    "generate_transit_stub",
    "DistanceOracle",
    "select_landmarks",
    "landmark_vectors",
]
