"""Tests for the K-nary tree: construction, lazy paths, repair."""

import math

import numpy as np
import pytest

from repro.dht import ChordRing, crash_node, join_node
from repro.exceptions import TreeError
from repro.idspace import IdentifierSpace, Region
from repro.ktree import KnaryTree


def region(tree, slot):
    """The identifier-space region of the KT node at ``slot``."""
    index = tree.index
    return Region(tree.ring.space, int(index.start[slot]), int(index.length[slot]))


def leaves(tree):
    """Slots of all materialised leaves, ascending."""
    index = tree.index
    size = len(index)
    return np.flatnonzero(index.alive[:size] & index.is_leaf[:size])


@pytest.fixture
def ring():
    r = ChordRing(IdentifierSpace(bits=10))
    r.populate(8, 2, [1.0] * 8, rng=4)
    return r


class TestConstruction:
    def test_root_owns_full_ring(self, ring):
        tree = KnaryTree(ring, 2)
        assert region(tree, 0).is_full_ring
        assert tree.index.level[0] == 0 and tree.index.parent[0] == -1

    def test_root_planted_at_ring_center_owner(self, ring):
        tree = KnaryTree(ring, 2)
        center = Region.full(ring.space).center
        assert tree.index.host[0] is ring.successor(center)

    def test_invalid_degree(self, ring):
        with pytest.raises(TreeError):
            KnaryTree(ring, 1)

    def test_single_vs_root_is_leaf(self):
        r = ChordRing(IdentifierSpace(bits=8))
        r.populate(1, 1, [1.0], rng=0)
        tree = KnaryTree(r, 2)
        assert tree.index.is_leaf[0]
        assert leaves(tree).tolist() == [0]


class TestFullBuild:
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_leaves_tile_ring(self, ring, k):
        tree = KnaryTree(ring, k)
        tree.build_full()
        total = sum(region(tree, leaf).length for leaf in leaves(tree))
        assert total == ring.space.size

    def test_every_vs_hosts_a_leaf(self, ring):
        """Paper guarantee: a KT leaf node is planted in each virtual server."""
        tree = KnaryTree(ring, 2)
        tree.build_full()
        hosting = {tree.index.host[leaf].vs_id for leaf in leaves(tree)}
        assert hosting == {vs.vs_id for vs in ring.virtual_servers}

    def test_leaf_regions_covered_by_host(self, ring):
        tree = KnaryTree(ring, 2)
        tree.build_full()
        for leaf in leaves(tree):
            host_region = ring.region_of(tree.index.host[leaf])
            leaf_region = region(tree, leaf)
            assert host_region.covers(leaf_region) or leaf_region.length < tree.k

    def test_invariants(self, ring):
        tree = KnaryTree(ring, 2)
        tree.build_full()
        tree.check_invariants()

    def test_max_nodes_guard(self, ring):
        tree = KnaryTree(ring, 2)
        with pytest.raises(TreeError):
            tree.build_full(max_nodes=3)

    def test_height_logarithmic(self):
        r = ChordRing(IdentifierSpace(bits=16))
        r.populate(32, 2, [1.0] * 32, rng=1)
        tree = KnaryTree(r, 2)
        tree.build_full()
        # Height is O(log2 #VS) with a modest constant (boundary leaves
        # descend further than the average).
        assert tree.height() <= 4 * math.log2(r.num_virtual_servers)

    def test_k8_shallower_than_k2(self, ring):
        t2, t8 = KnaryTree(ring, 2), KnaryTree(ring, 8)
        t2.build_full()
        t8.build_full()
        assert t8.height() < t2.height()


class TestLazyPaths:
    def test_leaf_for_key_contains_key(self, ring):
        tree = KnaryTree(ring, 2)
        for key in [0, 17, 512, 1023]:
            leaf = tree.ensure_leaf_for_key(key)
            assert tree.index.is_leaf[leaf]
            assert region(tree, leaf).contains(key)

    def test_lazy_leaf_matches_full_tree(self, ring):
        lazy = KnaryTree(ring, 2)
        full = KnaryTree(ring, 2)
        full.build_full()
        full_leaves = {
            (full.index.start[l], full.index.length[l]) for l in leaves(full)
        }
        gen = np.random.default_rng(0)
        for key in gen.integers(0, ring.space.size, size=40):
            leaf = lazy.ensure_leaf_for_key(int(key))
            assert (lazy.index.start[leaf], lazy.index.length[leaf]) in full_leaves

    def test_repeated_key_returns_same_leaf(self, ring):
        tree = KnaryTree(ring, 2)
        a = tree.ensure_leaf_for_key(100)
        b = tree.ensure_leaf_for_key(100)
        assert a == b

    def test_lazy_much_smaller_than_full(self):
        r = ChordRing(IdentifierSpace(bits=20))
        r.populate(64, 4, [1.0] * 64, rng=2)
        lazy = KnaryTree(r, 2)
        for key in range(0, r.space.size, r.space.size // 16):
            lazy.ensure_leaf_for_key(key)
        full = KnaryTree(r, 2)
        full.build_full()
        assert lazy.node_count < full.node_count / 3

    def test_node_count_tracks_materialisation(self, ring):
        tree = KnaryTree(ring, 2)
        assert tree.node_count == 1
        tree.ensure_leaf_for_key(0)
        assert tree.node_count > 1

    def test_nodes_by_level_desc_ordering(self, ring):
        tree = KnaryTree(ring, 2)
        tree.ensure_leaf_for_key(5)
        tree.ensure_leaf_for_key(900)
        order = tree.nodes_by_level_desc()
        assert sorted(order.tolist()) == list(range(tree.node_count))
        levels = tree.index.level[order].tolist()
        assert levels == sorted(levels, reverse=True)
        # Within a level, deepest-first runs by descending region start.
        keys = list(zip(levels, tree.index.start[order].tolist()))
        assert keys == sorted(keys, reverse=True)

    def test_invariants_on_lazy_tree(self, ring):
        tree = KnaryTree(ring, 2)
        for key in [3, 700, 222]:
            tree.ensure_leaf_for_key(key)
        tree.check_invariants()


class TestRepair:
    def test_refresh_noop_on_stable_tree(self, ring):
        tree = KnaryTree(ring, 2)
        tree.build_full()
        counters = tree.refresh()
        assert counters == {"replanted": 0, "pruned": 0, "grown": 0}

    def test_refresh_after_join_replants(self, ring):
        tree = KnaryTree(ring, 2)
        tree.build_full()
        join_node(ring, capacity=1.0, vs_count=2, rng=9)
        counters = tree.refresh()
        assert counters["replanted"] + counters["grown"] > 0
        # After enough passes the tree stabilises and is again valid.
        for _ in range(32):
            if sum(tree.refresh().values()) == 0:
                break
        tree.check_invariants()

    def test_refresh_after_crash_prunes(self, ring):
        tree = KnaryTree(ring, 2)
        tree.build_full()
        crash_node(ring, ring.nodes[0])
        for _ in range(32):
            if sum(tree.refresh().values()) == 0:
                break
        tree.check_invariants()
        # every remaining VS still hosts a leaf after repair + growth
        full = KnaryTree(ring, 2)
        full.build_full()
        assert {full.index.host[l].vs_id for l in leaves(full)} == {
            vs.vs_id for vs in ring.virtual_servers
        }

    def test_repair_converges_quickly(self, ring):
        """Repair should stabilise in O(height) refresh passes."""
        tree = KnaryTree(ring, 2)
        tree.build_full()
        crash_node(ring, ring.nodes[1])
        passes = 0
        while passes < 64:
            passes += 1
            if sum(tree.refresh().values()) == 0:
                break
        assert passes <= tree.height() + 2
