"""repro: proximity-aware load balancing for structured P2P systems.

A full reproduction of Zhu & Hu, "Towards Efficient Load Balancing in
Structured P2P Systems" (2004): a Chord DHT simulator with virtual
servers, the distributed K-nary aggregation tree, the four-phase
proximity-aware load balancer (LBI aggregation, classification, virtual
server assignment, virtual server transfer), landmark + Hilbert-curve
proximity mapping, GT-ITM-style transit-stub topologies, the paper's
workload models, and the complete experiment suite.

Quickstart::

    from repro import (
        BalancerConfig, LoadBalancer, GaussianLoadModel, build_scenario
    )

    scenario = build_scenario(GaussianLoadModel(mu=1e6, sigma=2e3),
                              num_nodes=512, rng=42)
    balancer = LoadBalancer(scenario.ring,
                            BalancerConfig(proximity_mode="ignorant",
                                           epsilon=0.05),
                            rng=7)
    report = balancer.run_round()
    print(report.summary_text())
"""

from repro.constants import (
    DEFAULT_NUM_LANDMARKS,
    DEFAULT_NUM_NODES,
    DEFAULT_RENDEZVOUS_THRESHOLD,
    DEFAULT_TREE_DEGREE,
    DEFAULT_VS_PER_NODE,
    ID_BITS,
)
from repro.core import (
    BalanceReport,
    BalancerConfig,
    LoadBalancer,
    NodeClass,
    SystemLBI,
)
from repro.dht import ChordRing, PhysicalNode, VirtualServer
from repro.idspace import IdentifierSpace, Region
from repro.ktree import KnaryTree
from repro.proximity import HilbertCurve, ProximityMapper
from repro.topology import (
    DistanceOracle,
    Topology,
    TransitStubParams,
    TS5K_LARGE,
    TS5K_SMALL,
    generate_transit_stub,
)
from repro.workloads import (
    GaussianLoadModel,
    GnutellaCapacityProfile,
    ParetoLoadModel,
    Scenario,
    build_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # constants
    "ID_BITS",
    "DEFAULT_NUM_NODES",
    "DEFAULT_VS_PER_NODE",
    "DEFAULT_TREE_DEGREE",
    "DEFAULT_RENDEZVOUS_THRESHOLD",
    "DEFAULT_NUM_LANDMARKS",
    # identifier space
    "IdentifierSpace",
    "Region",
    # DHT
    "ChordRing",
    "PhysicalNode",
    "VirtualServer",
    # tree
    "KnaryTree",
    # proximity
    "HilbertCurve",
    "ProximityMapper",
    # topology
    "Topology",
    "TransitStubParams",
    "TS5K_LARGE",
    "TS5K_SMALL",
    "generate_transit_stub",
    "DistanceOracle",
    # core
    "LoadBalancer",
    "BalancerConfig",
    "BalanceReport",
    "NodeClass",
    "SystemLBI",
    # workloads
    "GaussianLoadModel",
    "ParetoLoadModel",
    "GnutellaCapacityProfile",
    "Scenario",
    "build_scenario",
]
