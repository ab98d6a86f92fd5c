"""The :class:`Topology` wrapper: a weighted graph with vertex roles.

Vertices are dense integers.  Every vertex is either a *transit* node or
a *stub* node; stub vertices carry the (transit domain, stub domain)
pair they belong to, which the tests use to verify locality properties
(e.g. nodes of one stub domain have near-identical landmark vectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.exceptions import TopologyError


@dataclass(frozen=True, slots=True)
class VertexInfo:
    """Role and domain membership of one topology vertex."""

    kind: str  # "transit" | "stub"
    transit_domain: int
    stub_domain: int | None  # None for transit vertices


@dataclass
class Topology:
    """A weighted undirected graph plus vertex metadata.

    Attributes
    ----------
    graph:
        ``networkx.Graph`` whose edges carry a ``weight`` attribute in
        latency units (1 intradomain, 3 interdomain).
    info:
        Per-vertex :class:`VertexInfo`, indexed by vertex id.
    name:
        Human-readable label (e.g. ``"ts5k-large"``).
    """

    graph: nx.Graph
    info: list[VertexInfo]
    name: str = "topology"
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.graph.number_of_nodes()
        if len(self.info) != n:
            raise TopologyError(
                f"info has {len(self.info)} entries for {n} vertices"
            )
        if n and sorted(self.graph.nodes) != list(range(n)):
            raise TopologyError("vertices must be dense integers 0..n-1")
        if n and not nx.is_connected(self.graph):
            raise TopologyError("topology must be connected")

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def stub_vertices(self) -> np.ndarray:
        """Vertex ids of all stub nodes (P2P peers attach here)."""
        return np.asarray(
            [v for v in range(self.num_vertices) if self.info[v].kind == "stub"],
            dtype=np.int64,
        )

    def stub_domain_of(self, vertex: int) -> tuple[int, int | None]:
        """``(transit_domain, stub_domain)`` of ``vertex``."""
        inf = self.info[vertex]
        return (inf.transit_domain, inf.stub_domain)

    def csr(self) -> sp.csr_matrix:
        """Weighted adjacency in CSR form (cached) for scipy shortest paths."""
        if self._csr is None:
            self._csr = nx.to_scipy_sparse_array(
                self.graph, nodelist=range(self.num_vertices), weight="weight", format="csr"
            )
        return self._csr
