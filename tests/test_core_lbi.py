"""Tests for LBI aggregation over the tree."""

import math

import pytest

from repro.core.lbi import (
    aggregate_lbi,
    collect_lbi_reports,
    direct_system_lbi,
)
from repro.dht import ChordRing
from repro.exceptions import BalancerError
from repro.idspace import IdentifierSpace
from repro.ktree import KnaryTree


@pytest.fixture
def ring():
    r = ChordRing(IdentifierSpace(bits=12))
    r.populate(10, 3, [float(i + 1) for i in range(10)], rng=2)
    for i, vs in enumerate(r.virtual_servers):
        vs.load = float(i + 1)
    return r


class TestCollect:
    def test_one_report_per_node(self, ring):
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=0)
        total = sum(len(records) for records in reports.values())
        assert total == len(ring.nodes)

    def test_reports_via_hosted_leaf(self, ring):
        """A node's report must enter at a leaf hosted by one of its VSs."""
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=1)
        index = tree.index
        for leaf, records in reports.items():
            assert index.alive[leaf] and index.is_leaf[leaf]
            assert index.host[leaf].owner.alive
            for rec in records:
                # the record matches some node hosted by... at minimum the
                # leaf's host VS owner reports plausible values
                assert rec.capacity > 0

    def test_zero_vs_node_still_reports(self, ring):
        node = ring.nodes[0]
        for vs in list(node.virtual_servers):
            vs_load = vs.load
            ring.remove_virtual_server(vs)
            ring.successor(vs.vs_id).load += vs_load
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=2)
        total = sum(len(records) for records in reports.values())
        assert total == len(ring.nodes)  # including the empty one


class TestAggregate:
    def test_matches_ground_truth(self, ring):
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=0)
        system, trace = aggregate_lbi(tree, reports)
        truth = direct_system_lbi(ring.nodes)
        assert system.total_load == pytest.approx(truth.total_load)
        assert system.total_capacity == pytest.approx(truth.total_capacity)
        assert system.min_vs_load == pytest.approx(truth.min_vs_load)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_aggregate_independent_of_degree(self, ring, k):
        tree = KnaryTree(ring, k)
        reports = collect_lbi_reports(ring, tree, rng=0)
        system, _ = aggregate_lbi(tree, reports)
        truth = direct_system_lbi(ring.nodes)
        assert system.total_load == pytest.approx(truth.total_load)

    def test_rounds_bounded_by_height(self, ring):
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=0)
        _, trace = aggregate_lbi(tree, reports)
        assert trace.upward_rounds == trace.tree_height
        assert trace.downward_rounds == trace.tree_height
        assert trace.total_rounds == 2 * trace.tree_height

    def test_rounds_scale_logarithmically(self):
        r = ChordRing(IdentifierSpace(bits=20))
        r.populate(64, 2, [1.0] * 64, rng=3)
        for vs in r.virtual_servers:
            vs.load = 1.0
        tree = KnaryTree(r, 2)
        reports = collect_lbi_reports(r, tree, rng=0)
        _, trace = aggregate_lbi(tree, reports)
        assert trace.upward_rounds <= 4 * math.log2(r.num_virtual_servers)

    def test_message_symmetry(self, ring):
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=0)
        _, trace = aggregate_lbi(tree, reports)
        assert trace.upward_messages == trace.downward_messages
        assert trace.upward_messages > 0

    def test_empty_reports_rejected(self, ring):
        tree = KnaryTree(ring, 2)
        with pytest.raises(BalancerError):
            aggregate_lbi(tree, {})

    def test_direct_lbi_counts_empty_nodes_capacity(self, ring):
        node = ring.nodes[5]
        for vs in list(node.virtual_servers):
            load = vs.load
            ring.remove_virtual_server(vs)
            ring.successor(vs.vs_id).load += load
        truth = direct_system_lbi(ring.nodes)
        assert truth.total_capacity == pytest.approx(
            sum(n.capacity for n in ring.nodes)
        )

    def test_direct_lbi_requires_some_vs(self):
        r = ChordRing(IdentifierSpace(bits=8))
        with pytest.raises(BalancerError):
            direct_system_lbi(r.nodes)
