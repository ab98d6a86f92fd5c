"""The paper's primary contribution: proximity-aware load balancing.

The four phases (Section 1.2):

1. :mod:`repro.core.lbi` — load-balancing-information aggregation over
   the K-nary tree (and top-down dissemination);
2. :mod:`repro.core.classification` — heavy / light / neutral node
   classification against capacity-proportional target loads;
3. :mod:`repro.core.vsa` — the bottom-up virtual-server-assignment sweep
   with rendezvous pairing (:mod:`repro.core.rendezvous`) fed by the
   shed-subset selection of :mod:`repro.core.selection` and the
   placement strategies of :mod:`repro.core.placement`;
4. :mod:`repro.core.vst` — virtual-server transfers with topology-aware
   cost accounting.

:class:`repro.core.balancer.LoadBalancer` orchestrates all phases;
:class:`repro.core.reference.SerialLoadBalancer` is its object-walk
reference for tests.
"""

from repro.core.records import (
    CONSERVATION_RTOL,
    Assignment,
    LBIRecord,
    NodeClass,
    ShedCandidate,
    SpareCapacity,
    SystemLBI,
    assert_loads_conserved,
)
from repro.core.classification import (
    classification_masks,
    classify_arrays,
    classify_node,
    classify_all,
    target_load,
)
from repro.core.config import BalancerConfig
from repro.core.selection import select_shed_subset, select_shed_subsets
from repro.core.rendezvous import PairingOutcome, pair_rendezvous
from repro.core.vsa import VSAEntries, VSAResult
from repro.core.vst import TransferRecord, execute_transfers
from repro.core.placement import ProximityPlacement, RandomVSPlacement
from repro.core.balancer import LoadBalancer
from repro.core.soa import NodeStateArrays
from repro.core.costs import CostSheet, cost_sheet, estimate_publication_hops
from repro.core.report import BalanceReport, check_conservation

__all__ = [
    "CONSERVATION_RTOL",
    "Assignment",
    "assert_loads_conserved",
    "check_conservation",
    "LBIRecord",
    "NodeClass",
    "ShedCandidate",
    "SpareCapacity",
    "SystemLBI",
    "classification_masks",
    "classify_arrays",
    "classify_node",
    "classify_all",
    "target_load",
    "BalancerConfig",
    "select_shed_subset",
    "select_shed_subsets",
    "PairingOutcome",
    "pair_rendezvous",
    "VSAEntries",
    "VSAResult",
    "TransferRecord",
    "execute_transfers",
    "ProximityPlacement",
    "RandomVSPlacement",
    "LoadBalancer",
    "NodeStateArrays",
    "BalanceReport",
    "CostSheet",
    "cost_sheet",
    "estimate_publication_hops",
]

#: The balancer's former name, kept only for the perf benchmark's import.
IncrementalLoadBalancer = LoadBalancer
