"""Tests for the distance oracle: cached rows and the domain separator."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from repro.exceptions import TopologyError
from repro.topology import (
    TS5K_LARGE,
    TS5K_SMALL,
    DistanceOracle,
    Topology,
    TransitStubParams,
    generate_transit_stub,
)
from repro.topology.graph import VertexInfo

#: ~20-vertex domains: few boundary vertices, so the separator engages.
SEPARATOR_TS = TransitStubParams(
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=3,
    stub_nodes_mean=20,
)


@pytest.fixture
def path_topology():
    """0 -1- 1 -2- 2 -3- 3 (weighted path graph)."""
    g = nx.Graph()
    g.add_edge(0, 1, weight=1)
    g.add_edge(1, 2, weight=2)
    g.add_edge(2, 3, weight=3)
    info = [VertexInfo("stub", 0, i) for i in range(4)]
    return Topology(graph=g, info=info)


class TestDistances:
    def test_known_distances(self, path_topology):
        oracle = DistanceOracle(path_topology)
        assert oracle.distance(0, 3) == 6.0
        assert oracle.distance(1, 3) == 5.0

    def test_symmetry(self, path_topology):
        oracle = DistanceOracle(path_topology)
        assert oracle.distance(0, 2) == oracle.distance(2, 0)

    def test_self_distance_zero(self, path_topology):
        oracle = DistanceOracle(path_topology)
        assert oracle.distance(2, 2) == 0.0

    def test_distances_from_row(self, path_topology):
        oracle = DistanceOracle(path_topology)
        row = oracle.distances_from(0)
        assert list(row) == [0.0, 1.0, 3.0, 6.0]

    def test_out_of_range_vertex(self, path_topology):
        oracle = DistanceOracle(path_topology)
        with pytest.raises(TopologyError):
            oracle.distance(0, 4)

    def test_matches_networkx(self, mini_topology):
        oracle = DistanceOracle(mini_topology)
        expected = nx.single_source_dijkstra_path_length(
            mini_topology.graph, 0, weight="weight"
        )
        row = oracle.distances_from(0)
        for v, d in expected.items():
            assert row[v] == pytest.approx(d)


class TestCaching:
    def test_row_cached(self, path_topology):
        oracle = DistanceOracle(path_topology)
        oracle.distances_from(0)
        runs = oracle.dijkstra_runs
        oracle.distances_from(0)
        assert oracle.dijkstra_runs == runs

    def test_distance_reuses_reverse_row(self, path_topology):
        oracle = DistanceOracle(path_topology)
        oracle.distances_from(3)
        runs = oracle.dijkstra_runs
        assert oracle.distance(0, 3) == 6.0  # uses row of 3 backwards
        assert oracle.dijkstra_runs == runs

    def test_lru_eviction(self, path_topology):
        oracle = DistanceOracle(path_topology, max_cached_rows=2)
        oracle.distances_from(0)
        oracle.distances_from(1)
        oracle.distances_from(2)
        assert oracle.cached_sources == 2

    def test_many_sources_single_call(self, path_topology):
        oracle = DistanceOracle(path_topology)
        rows = oracle.distances_from_many([0, 1, 2])
        assert rows.shape == (3, 4)
        assert oracle.dijkstra_runs == 3  # one per source, batched in one scipy call

    def test_distances_between_batches(self, path_topology):
        oracle = DistanceOracle(path_topology)
        pairs = [(0, 3), (1, 2), (0, 2)]
        out = oracle.distances_between(pairs)
        assert list(out) == [6.0, 2.0, 3.0]
        # 0 and 1 are the only sources needed (0 used twice).
        assert oracle.dijkstra_runs <= 2

    def test_distances_between_uses_cached_reverse(self, path_topology):
        oracle = DistanceOracle(path_topology)
        oracle.distances_from(3)
        out = oracle.distances_between([(0, 3)])
        assert out[0] == 6.0
        assert oracle.dijkstra_runs == 1

    def test_many_sources_tight_lru_no_thrash(self, path_topology):
        """A batch larger than the LRU bound costs one run per unique source.

        The old implementation evicted rows while still inserting the
        batch, then re-read the cache to stack the result — recomputing
        rows it had produced moments earlier, one extra Dijkstra per
        evicted source.
        """
        oracle = DistanceOracle(path_topology, max_cached_rows=2)
        rows = oracle.distances_from_many([0, 1, 2, 3])
        assert rows.shape == (4, 4)
        assert oracle.dijkstra_runs == 4
        assert oracle.cached_sources == 2  # trimmed after stacking

    def test_many_sources_duplicates_counted_once(self, path_topology):
        oracle = DistanceOracle(path_topology, max_cached_rows=1)
        rows = oracle.distances_from_many([2, 0, 2, 0, 2])
        assert rows.shape == (5, 4)
        assert oracle.dijkstra_runs == 2  # unique sources only
        assert list(rows[0]) == list(rows[2]) == list(rows[4])
        assert list(rows[1]) == [0.0, 1.0, 3.0, 6.0]

    def test_distances_between_survives_tight_lru(self, path_topology):
        """Pair batches larger than the LRU bound must not KeyError.

        ``distances_between`` used to re-read the cache after the batch
        call; with ``max_cached_rows`` below the batch size, the batch
        itself evicted the earlier rows it was about to read.
        """
        oracle = DistanceOracle(path_topology, max_cached_rows=1)
        out = oracle.distances_between([(0, 3), (1, 3), (2, 3)])
        assert list(out) == [6.0, 5.0, 3.0]

    def test_many_sources_mixed_cached_and_missing(self, path_topology):
        oracle = DistanceOracle(path_topology)
        oracle.distances_from(1)
        rows = oracle.distances_from_many([1, 3])
        assert oracle.dijkstra_runs == 2  # only 3 was recomputed
        assert list(rows[0]) == [1.0, 0.0, 2.0, 5.0]


# ----------------------------------------------------------------------
# Domain separator: exactness and when it engages
# ----------------------------------------------------------------------
def _boundary(topology: Topology) -> int:
    """Vertices with an edge leaving their ``stub_domain_of`` domain."""
    return sum(
        any(
            topology.stub_domain_of(v) != topology.stub_domain_of(w)
            for w in topology.graph.neighbors(v)
        )
        for v in topology.graph.nodes
    )


def _pairs(sources, targets) -> list[tuple[int, int]]:
    return [(int(u), int(v)) for u in sources for v in targets]


@pytest.fixture(scope="module")
def ts5k_large():
    return generate_transit_stub(TS5K_LARGE, rng=0)


@pytest.fixture(scope="module")
def ts5k_large_oracle(ts5k_large):
    """One oracle shared by the ts5k-large tests: its block is built once."""
    return DistanceOracle(ts5k_large)


class TestSeparatorExact:
    def test_ts5k_large_matches_scipy(self, ts5k_large, ts5k_large_oracle):
        n = ts5k_large.num_vertices
        oracle = ts5k_large_oracle
        sources = np.random.default_rng(4).choice(n, size=300, replace=False)
        expected = shortest_path(ts5k_large.csr(), directed=False, indices=sources)
        got = oracle.distances_between(_pairs(sources, range(n)))
        assert np.array_equal(got, expected.astype(np.float32).ravel())
        boundary = _boundary(ts5k_large)
        assert boundary == 430
        assert oracle.dijkstra_runs == boundary  # no per-source row
        assert oracle.cached_sources == 0

    def test_ts5k_large_within_stub_domains(self, ts5k_large, ts5k_large_oracle):
        oracle = ts5k_large_oracle
        stub_domains = sorted(
            {ts5k_large.stub_domain_of(v) for v in ts5k_large.stub_vertices}
        )
        for domain in stub_domains[:3]:
            members = [
                v for v in range(ts5k_large.num_vertices)
                if ts5k_large.stub_domain_of(v) == domain
            ]
            expected = shortest_path(ts5k_large.csr(), directed=False, indices=members)
            got = oracle.distances_between(_pairs(members, members))
            assert np.array_equal(
                got, expected[:, members].astype(np.float32).ravel()
            )
        assert oracle.dijkstra_runs == 430

    def test_distance_uses_separator(self, ts5k_large, ts5k_large_oracle):
        oracle = ts5k_large_oracle
        expected = shortest_path(ts5k_large.csr(), directed=False, indices=[17])
        for v in (0, 17, 1000, 4858):
            assert oracle.distance(17, v) == float(np.float32(expected[0, v]))
        assert oracle.dijkstra_runs == 430

    def test_tight_lru_never_recomputes_block(self):
        topology = generate_transit_stub(SEPARATOR_TS, rng=1)
        n = topology.num_vertices
        boundary = _boundary(topology)
        assert 0 < 4 * boundary <= n
        oracle = DistanceOracle(topology, max_cached_rows=1)
        expected = shortest_path(topology.csr(), directed=False)
        rows = 0
        for batch in range(4):
            oracle.distances_from(batch)  # evicts the previous LRU row
            rows += 1
            sources = range(batch, n, 7)
            got = oracle.distances_between(_pairs(sources, range(n)))
            assert np.array_equal(
                got, expected[list(sources)].astype(np.float32).ravel()
            )
            assert oracle.dijkstra_runs == boundary + rows
            assert oracle.cached_sources == 1

    def test_out_of_range_pair_rejected(self):
        oracle = DistanceOracle(generate_transit_stub(SEPARATOR_TS, rng=1))
        with pytest.raises(TopologyError):
            oracle.distances_between([(0, 1), (-1, 2)])

    def test_empty_batch(self):
        oracle = DistanceOracle(generate_transit_stub(SEPARATOR_TS, rng=1))
        assert oracle.distances_between([]).shape == (0,)


@st.composite
def domain_graphs(draw):
    """Small integer-weighted domain graphs the separator engages on.

    Stub domain 0 hangs off the transit hub.  Stub domain 1 is a single
    vertex whose only edge goes to stub domain 0, so it is reachable only
    through another domain.  Every further stub domain (1-6 vertices)
    attaches by one edge to the hub or an earlier domain other than 1,
    so it is single-exit unless a stub-stub shortcut lands on it.  The
    hub is sized to keep the boundary under a quarter of the vertices.
    """
    weight = st.integers(1, 9)
    g = nx.Graph()
    info: list[VertexInfo] = []

    def add_domain(size: int, sd: int | None) -> list[int]:
        vs = list(range(len(info), len(info) + size))
        info.extend(VertexInfo("stub" if sd is not None else "transit", 0, sd) for _ in vs)
        g.add_nodes_from(vs)
        for i in range(1, size):  # random spanning tree, then chords
            g.add_edge(vs[i], vs[draw(st.integers(0, i - 1))], weight=draw(weight))
        for a, b in draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=3)):
            if a != b:
                g.add_edge(a, b, weight=draw(weight))
        return vs

    sizes = [draw(st.integers(1, 6)), 1] + draw(st.lists(st.integers(1, 6), max_size=4))
    stubs = [add_domain(size, sd) for sd, size in enumerate(sizes)]
    shortcut_end = st.sampled_from([0] + list(range(2, len(stubs))))
    shortcuts = draw(st.lists(st.tuples(shortcut_end, shortcut_end), max_size=4))
    hub = add_domain(4 * (len(info) + len(stubs)), None)

    def link(a: list[int], b: list[int]) -> None:
        g.add_edge(draw(st.sampled_from(a)), draw(st.sampled_from(b)), weight=draw(weight))

    link(stubs[0], hub)
    link(stubs[1], stubs[0])
    for k in range(2, len(stubs)):
        parent = draw(st.sampled_from([-1, 0] + list(range(2, k))))
        link(stubs[k], hub if parent < 0 else stubs[parent])
    for a, b in shortcuts:
        if a != b:
            link(stubs[a], stubs[b])
    return Topology(graph=g, info=info)


class TestSeparatorProperty:
    @settings(max_examples=60, deadline=None)
    @given(domain_graphs())
    def test_matches_all_pairs(self, topology):
        n = topology.num_vertices
        boundary = _boundary(topology)
        assert 4 * boundary <= n
        oracle = DistanceOracle(topology)
        got = oracle.distances_between(_pairs(range(n), range(n)))
        expected = shortest_path(topology.csr(), directed=False)
        assert np.array_equal(got, expected.astype(np.float32).ravel())
        assert oracle.dijkstra_runs == boundary


class TestSeparatorDisengaged:
    """Graphs where the separator would not pay or not be exact keep rows."""

    @staticmethod
    def _assert_rows(topology: Topology) -> None:
        n = topology.num_vertices
        oracle = DistanceOracle(topology)
        sources = [0, n // 2, n - 1]
        got = oracle.distances_between(_pairs(sources, range(n)))
        expected = shortest_path(topology.csr(), directed=False, indices=sources)
        assert np.array_equal(got, expected.astype(np.float32).ravel())
        assert oracle.dijkstra_runs == len(sources)  # one row per source

    def test_ts5k_small(self):
        topology = generate_transit_stub(TS5K_SMALL, rng=0)
        assert 4 * _boundary(topology) > topology.num_vertices
        self._assert_rows(topology)

    def test_mini_ts(self, mini_topology):
        assert _boundary(mini_topology) == 18
        self._assert_rows(mini_topology)

    def test_path_topology(self, path_topology):
        self._assert_rows(path_topology)

    def test_non_integer_weights(self):
        topology = generate_transit_stub(SEPARATOR_TS, rng=1)
        assert 4 * _boundary(topology) <= topology.num_vertices
        u, v = next(iter(topology.graph.edges))
        topology.graph[u][v]["weight"] = 1.5
        self._assert_rows(topology)

    def test_single_domain(self, path_topology):
        g = path_topology.graph
        info = [VertexInfo("stub", 0, 0) for _ in g.nodes]
        self._assert_rows(Topology(graph=g, info=info))
