"""GT-ITM-style transit-stub topology generation.

The paper (Section 5.1) evaluates on two ~5000-vertex transit-stub
topologies produced by GT-ITM:

* ``ts5k-large`` — 5 transit domains, 3 transit nodes per transit domain,
  5 stub domains per transit node, ~60 nodes per stub domain.  Represents
  a P2P system drawn from a few large campuses.
* ``ts5k-small`` — 120 transit domains, 5 transit nodes per transit
  domain, 4 stub domains per transit node, ~2 nodes per stub domain.
  Represents peers scattered across the whole Internet.

GT-ITM itself is a C program we cannot run offline; this module generates
graphs with the same two-level structure and the same published
parameters.  Three aspects of real GT-ITM output matter for the paper's
results and are modelled explicitly:

1. **Stub domains are LAN-like.**  GT-ITM stub domains model campus
   networks; their internal diameter is small.  ``ts5k-large`` therefore
   defaults to fully-connected stub domains (every intra-stub pair is one
   1-unit hop), which keeps intra-stub transfer distances at 1-2 latency
   units — the paper's "within 2 hops" bucket.

2. **Interdomain edge weights vary.**  GT-ITM derives edge lengths from
   Euclidean placement, so access/interdomain links are not all equal.
   We draw interdomain weights uniformly from a small integer range with
   mean 3 (the paper's interdomain hop cost).  Without this variation,
   sibling stub domains hanging off the same transit node are *provably
   indistinguishable* by landmark vectors (their members' vectors differ
   only by a per-node diagonal offset), which would make proximity-aware
   placement unable to separate them — an artifact of over-idealising
   the generator, not a property of the paper's system.

3. **Extra stub-stub edges.**  GT-ITM adds a configurable number of
   stub-stub shortcut edges; we add them between stub domains of the
   same transit domain with a small probability, further diversifying
   landmark fingerprints.

Edge weights follow the paper: each interdomain hop costs
:data:`~repro.constants.INTERDOMAIN_HOP_COST` (3, in expectation) latency
units, each intradomain hop :data:`~repro.constants.INTRADOMAIN_HOP_COST`
(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.constants import INTRADOMAIN_HOP_COST
from repro.exceptions import TopologyError
from repro.topology.graph import Topology, VertexInfo
from repro.util.rng import ensure_rng


@dataclass(frozen=True, slots=True)
class TransitStubParams:
    """Parameters of a transit-stub topology.

    ``extra_edge_prob_*`` control redundant intra-graph edges added on
    top of the random spanning tree that guarantees connectivity
    (probability per vertex pair; ``1.0`` yields a clique).
    ``interdomain_weight_range`` is the inclusive integer range of
    interdomain edge weights (keep the mean at 3 to match the paper's
    hop-cost rule).  ``stub_stub_edge_prob`` is the probability, per pair
    of stub domains sharing a transit domain, of one extra shortcut edge.
    """

    transit_domains: int
    transit_nodes_per_domain: int
    stub_domains_per_transit: int
    stub_nodes_mean: int
    name: str = "transit-stub"
    extra_edge_prob_transit_core: float = 0.3
    extra_edge_prob_transit_domain: float = 0.5
    extra_edge_prob_stub_domain: float = 1.0
    stub_size_jitter: float = 0.5  # stub size ~ Uniform[mean*(1-j), mean*(1+j)]
    interdomain_weight_range: tuple[int, int] = (2, 4)
    stub_stub_edge_prob: float = 0.3

    def __post_init__(self) -> None:
        if min(
            self.transit_domains,
            self.transit_nodes_per_domain,
            self.stub_domains_per_transit,
            self.stub_nodes_mean,
        ) < 1:
            raise TopologyError("all transit-stub counts must be >= 1")
        if not 0.0 <= self.stub_size_jitter < 1.0:
            raise TopologyError("stub_size_jitter must be in [0, 1)")
        lo, hi = self.interdomain_weight_range
        if not (isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi):
            raise TopologyError(
                f"interdomain_weight_range must be an int range >= 1, got {self.interdomain_weight_range}"
            )
        if not 0.0 <= self.stub_stub_edge_prob <= 1.0:
            raise TopologyError("stub_stub_edge_prob must be in [0, 1]")


#: Paper's "ts5k-large": few large stub domains (campus-like clustering).
TS5K_LARGE = TransitStubParams(
    transit_domains=5,
    transit_nodes_per_domain=3,
    stub_domains_per_transit=5,
    stub_nodes_mean=60,
    name="ts5k-large",
)

#: Paper's "ts5k-small": many tiny stub domains (Internet-scattered peers).
TS5K_SMALL = TransitStubParams(
    transit_domains=120,
    transit_nodes_per_domain=5,
    stub_domains_per_transit=4,
    stub_nodes_mean=2,
    name="ts5k-small",
)


def generate_transit_stub(
    params: TransitStubParams,
    rng: int | None | np.random.Generator = None,
) -> Topology:
    """Generate one transit-stub topology instance.

    The construction:

    1. Connect the transit domains with a random spanning tree plus extra
       random domain pairs; each domain-level edge is realised between a
       random transit node of each side (interdomain weight).
    2. Inside each transit domain, connect the transit nodes with a random
       spanning tree plus extra edges (intradomain weight).
    3. Attach ``stub_domains_per_transit`` stub domains to every transit
       node; each stub domain is a random connected graph (intradomain
       weight) joined to its transit node through one gateway stub vertex
       (interdomain weight).
    4. Add stub-stub shortcut edges between stub domains of the same
       transit domain with probability ``stub_stub_edge_prob`` per pair.
    """
    gen = ensure_rng(rng)
    g = nx.Graph()
    info: list[VertexInfo] = []

    def new_vertex(kind: str, td: int, sd: int | None) -> int:
        v = len(info)
        info.append(VertexInfo(kind=kind, transit_domain=td, stub_domain=sd))
        g.add_node(v)
        return v

    def interdomain_weight() -> int:
        lo, hi = params.interdomain_weight_range
        return int(gen.integers(lo, hi + 1))

    # --- transit nodes -------------------------------------------------
    transit_by_domain: list[list[int]] = []
    for td in range(params.transit_domains):
        members = [new_vertex("transit", td, None) for _ in range(params.transit_nodes_per_domain)]
        transit_by_domain.append(members)
        _connect_randomly(
            g, members, gen,
            extra_prob=params.extra_edge_prob_transit_domain,
            weight=INTRADOMAIN_HOP_COST,
        )

    # --- transit core (domain-level connectivity) ----------------------
    domain_pairs = _random_tree_edges(params.transit_domains, gen)
    for a, b in _with_extra_pairs(
        domain_pairs, params.transit_domains, params.extra_edge_prob_transit_core, gen
    ):
        u = transit_by_domain[a][int(gen.integers(len(transit_by_domain[a])))]
        v = transit_by_domain[b][int(gen.integers(len(transit_by_domain[b])))]
        g.add_edge(u, v, weight=interdomain_weight())

    # --- stub domains ---------------------------------------------------
    stub_domain_id = 0
    stub_members: dict[int, list[int]] = {}
    stub_domains_by_td: dict[int, list[int]] = {td: [] for td in range(params.transit_domains)}
    for td, members in enumerate(transit_by_domain):
        for t_vertex in members:
            for _ in range(params.stub_domains_per_transit):
                size = _stub_size(params, gen)
                stub = [new_vertex("stub", td, stub_domain_id) for _ in range(size)]
                _connect_randomly(
                    g, stub, gen,
                    extra_prob=params.extra_edge_prob_stub_domain,
                    weight=INTRADOMAIN_HOP_COST,
                )
                gateway = stub[int(gen.integers(len(stub)))]
                g.add_edge(t_vertex, gateway, weight=interdomain_weight())
                stub_members[stub_domain_id] = stub
                stub_domains_by_td[td].append(stub_domain_id)
                stub_domain_id += 1

    # --- stub-stub shortcuts within each transit domain ------------------
    if params.stub_stub_edge_prob > 0:
        for td, domains in stub_domains_by_td.items():
            for i in range(len(domains)):
                for j in range(i + 1, len(domains)):
                    if gen.random() < params.stub_stub_edge_prob:
                        a_members = stub_members[domains[i]]
                        b_members = stub_members[domains[j]]
                        a = a_members[int(gen.integers(len(a_members)))]
                        b = b_members[int(gen.integers(len(b_members)))]
                        g.add_edge(a, b, weight=interdomain_weight())

    return Topology(graph=g, info=info, name=params.name)


def _stub_size(params: TransitStubParams, gen: np.random.Generator) -> int:
    lo = max(1, int(round(params.stub_nodes_mean * (1 - params.stub_size_jitter))))
    hi = max(lo, int(round(params.stub_nodes_mean * (1 + params.stub_size_jitter))))
    return int(gen.integers(lo, hi + 1))


def _random_tree_edges(n: int, gen: np.random.Generator) -> list[tuple[int, int]]:
    """Edges of a uniform random attachment tree over ``range(n)``."""
    order = gen.permutation(n)
    edges = []
    for i in range(1, n):
        parent = order[int(gen.integers(i))]
        edges.append((int(order[i]), int(parent)))
    return edges


def _with_extra_pairs(
    tree_edges: list[tuple[int, int]],
    n: int,
    prob: float,
    gen: np.random.Generator,
) -> list[tuple[int, int]]:
    """Tree edges plus each non-tree pair independently with ``prob``.

    ``prob >= 1`` yields all pairs (a clique).  For large ``n`` the number
    of candidate pairs is sampled (binomial) rather than enumerated,
    keeping generation O(edges).
    """
    existing = {frozenset(e) for e in tree_edges}
    out = list(tree_edges)
    if n < 2 or prob <= 0.0:
        return out
    if prob >= 1.0:
        for a in range(n):
            for b in range(a + 1, n):
                if frozenset((a, b)) not in existing:
                    out.append((a, b))
        return out
    total_pairs = n * (n - 1) // 2
    extra = int(gen.binomial(total_pairs, prob))
    attempts = 0
    while extra > 0 and attempts < 20 * total_pairs:
        a = int(gen.integers(n))
        b = int(gen.integers(n))
        attempts += 1
        if a == b:
            continue
        key = frozenset((a, b))
        if key in existing:
            continue
        existing.add(key)
        out.append((a, b))
        extra -= 1
    return out


def _connect_randomly(
    g: nx.Graph,
    members: list[int],
    gen: np.random.Generator,
    extra_prob: float,
    weight: int,
) -> None:
    """Wire ``members`` into a connected random subgraph."""
    n = len(members)
    if n == 1:
        return
    local_edges = _random_tree_edges(n, gen)
    for a, b in _with_extra_pairs(local_edges, n, extra_prob, gen):
        g.add_edge(members[a], members[b], weight=weight)
