"""Tests for the transit-stub topology generator."""

import networkx as nx
import numpy as np
import pytest

from repro.constants import INTRADOMAIN_HOP_COST
from repro.exceptions import TopologyError
from repro.topology import (
    TS5K_LARGE,
    TS5K_SMALL,
    Topology,
    TransitStubParams,
    generate_transit_stub,
)
from repro.topology.graph import VertexInfo
from tests.conftest import MINI_TS


def _transit_vertices(topo):
    return [v for v in range(topo.num_vertices) if topo.info[v].kind == "transit"]


class TestParams:
    def test_paper_large_parameters(self):
        assert TS5K_LARGE.transit_domains == 5
        assert TS5K_LARGE.transit_nodes_per_domain == 3
        assert TS5K_LARGE.stub_domains_per_transit == 5
        assert TS5K_LARGE.stub_nodes_mean == 60

    def test_paper_small_parameters(self):
        assert TS5K_SMALL.transit_domains == 120
        assert TS5K_SMALL.transit_nodes_per_domain == 5
        assert TS5K_SMALL.stub_domains_per_transit == 4
        assert TS5K_SMALL.stub_nodes_mean == 2

    def test_expected_vertices_near_5000(self):
        for params in (TS5K_LARGE, TS5K_SMALL):
            transit = params.transit_domains * params.transit_nodes_per_domain
            stubs = transit * params.stub_domains_per_transit * params.stub_nodes_mean
            assert 4000 <= transit + stubs <= 6000

    def test_invalid_counts(self):
        with pytest.raises(TopologyError):
            TransitStubParams(0, 1, 1, 1)

    def test_invalid_jitter(self):
        with pytest.raises(TopologyError):
            TransitStubParams(1, 1, 1, 1, stub_size_jitter=1.0)

    def test_invalid_weight_range(self):
        with pytest.raises(TopologyError):
            TransitStubParams(1, 1, 1, 1, interdomain_weight_range=(4, 2))


class TestGeneration:
    @pytest.fixture(scope="class")
    def topo(self):
        return generate_transit_stub(MINI_TS, rng=5)

    def test_connected(self, topo):
        assert nx.is_connected(topo.graph)

    def test_transit_count(self, topo):
        assert len(_transit_vertices(topo)) == 4  # 2 domains x 2 nodes

    def test_stub_domain_count(self, topo):
        domains = {
            topo.info[v].stub_domain
            for v in topo.stub_vertices
        }
        assert len(domains) == 8  # 4 transit nodes x 2 stub domains

    def test_vertex_roles_partition(self, topo):
        assert len(topo.stub_vertices) + len(_transit_vertices(topo)) == topo.num_vertices

    def test_stub_vertices_have_stub_domain(self, topo):
        for v in topo.stub_vertices:
            assert topo.info[v].stub_domain is not None
        for v in _transit_vertices(topo):
            assert topo.info[v].stub_domain is None

    def test_deterministic_by_seed(self):
        a = generate_transit_stub(MINI_TS, rng=9)
        b = generate_transit_stub(MINI_TS, rng=9)
        assert a.num_vertices == b.num_vertices
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_different_seeds_differ(self):
        a = generate_transit_stub(MINI_TS, rng=1)
        b = generate_transit_stub(MINI_TS, rng=2)
        assert sorted(a.graph.edges) != sorted(b.graph.edges)

    def test_intradomain_edges_have_unit_weight(self, topo):
        for u, v, w in topo.graph.edges(data="weight"):
            iu, iv = topo.info[u], topo.info[v]
            same_stub = (
                iu.kind == "stub"
                and iv.kind == "stub"
                and iu.stub_domain == iv.stub_domain
            )
            same_transit_domain = (
                iu.kind == "transit"
                and iv.kind == "transit"
                and iu.transit_domain == iv.transit_domain
            )
            if same_stub or same_transit_domain:
                assert w == INTRADOMAIN_HOP_COST

    def test_interdomain_edges_weight_in_range(self, topo):
        lo, hi = MINI_TS.interdomain_weight_range
        for u, v, w in topo.graph.edges(data="weight"):
            iu, iv = topo.info[u], topo.info[v]
            crosses = (iu.kind != iv.kind) or (
                iu.kind == "stub" and iv.kind == "stub" and iu.stub_domain != iv.stub_domain
            ) or (
                iu.kind == "transit" and iv.kind == "transit"
                and iu.transit_domain != iv.transit_domain
            )
            if crosses:
                assert lo <= w <= hi

    def test_stub_domains_are_cliques_at_default_density(self, topo):
        """With extra_edge_prob_stub_domain=1.0, stub domains are cliques."""
        import collections
        members = collections.defaultdict(list)
        for v in topo.stub_vertices:
            members[topo.info[v].stub_domain].append(int(v))
        for domain, verts in members.items():
            for i, a in enumerate(verts):
                for b in verts[i + 1:]:
                    assert topo.graph.has_edge(a, b)

    def test_stub_sizes_near_mean(self):
        topo = generate_transit_stub(TS5K_LARGE, rng=0)
        import collections
        sizes = collections.Counter(
            topo.info[v].stub_domain for v in topo.stub_vertices
        )
        mean = np.mean(list(sizes.values()))
        assert 45 <= mean <= 75  # 60 +- jitter


class TestTopologyWrapper:
    def test_info_length_checked(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=1)
        with pytest.raises(TopologyError):
            Topology(graph=g, info=[VertexInfo("stub", 0, 0)])

    def test_dense_labels_checked(self):
        g = nx.Graph()
        g.add_edge(0, 2, weight=1)
        with pytest.raises(TopologyError):
            Topology(
                graph=g,
                info=[VertexInfo("stub", 0, 0), VertexInfo("stub", 0, 0)],
            )

    def test_disconnected_rejected(self):
        g = nx.Graph()
        g.add_node(0)
        g.add_node(1)
        with pytest.raises(TopologyError):
            Topology(
                graph=g,
                info=[VertexInfo("stub", 0, 0), VertexInfo("stub", 0, 1)],
            )

    def test_csr_shape_and_symmetry(self, mini_topology):
        csr = mini_topology.csr()
        n = mini_topology.num_vertices
        assert csr.shape == (n, n)
        assert (abs(csr - csr.T)).nnz == 0

    def test_degree_stats(self, mini_topology):
        degrees = [d for _, d in mini_topology.graph.degree()]
        assert min(degrees) >= 1
        assert sum(degrees) / len(degrees) >= 2
