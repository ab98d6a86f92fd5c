"""Cross-cutting property tests tying the layers together.

Hypothesis generates random rings, keys and loads, and checks the
contracts *between* subsystems: ownership vs routing vs tree planting vs
balancing — the places where unit tests of a single module cannot see a
disagreement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BalancerConfig, LoadBalancer
from repro.dht import ChordRing, lookup_path
from repro.idspace import IdentifierSpace, Region
from repro.ktree import KnaryTree
from repro.workloads import GaussianLoadModel, assign_loads


def make_ring(seed: int, n_nodes: int, bits: int = 16) -> ChordRing:
    ring = ChordRing(IdentifierSpace(bits=bits))
    ring.populate(n_nodes, 2, [1.0] * n_nodes, rng=seed)
    return ring


class TestOwnershipContracts:
    @given(seed=st.integers(0, 50), key=st.integers(0, 2**16 - 1))
    @settings(max_examples=80, deadline=None)
    def test_successor_region_contains_key(self, seed, key):
        ring = make_ring(seed, 8)
        owner = ring.successor(key)
        assert ring.region_of(owner).contains(key)

    @given(seed=st.integers(0, 30), key=st.integers(0, 2**16 - 1))
    @settings(max_examples=50, deadline=None)
    def test_chord_lookup_agrees_with_ownership(self, seed, key):
        ring = make_ring(seed, 8)
        start = ring.virtual_servers[0]
        assert lookup_path(ring, start, key)[-1] == ring.successor(key).vs_id

    @given(seed=st.integers(0, 30), key=st.integers(0, 2**16 - 1))
    @settings(max_examples=50, deadline=None)
    def test_tree_leaf_host_owns_leaf_center(self, seed, key):
        ring = make_ring(seed, 8)
        tree = KnaryTree(ring, 2)
        index = tree.index
        leaf = tree.ensure_leaf_for_key(key)
        region = Region(ring.space, int(index.start[leaf]), int(index.length[leaf]))
        assert region.contains(key)
        host_region = ring.region_of(index.host[leaf])
        assert host_region.contains(region.center)


class TestBalancerContracts:
    @given(seed=st.integers(0, 20))
    @settings(max_examples=12, deadline=None)
    def test_round_conserves_load_and_respects_targets(self, seed):
        ring = make_ring(seed, 24)
        assign_loads(ring, GaussianLoadModel(mu=1e5, sigma=100.0), rng=seed)
        # heterogeneous capacities
        gen = np.random.default_rng(seed)
        for node in ring.nodes:
            node.capacity = float(gen.choice([1.0, 10.0, 100.0, 1000.0]))
        before = sum(n.load for n in ring.nodes)
        lb = LoadBalancer(
            ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=seed
        )
        report = lb.run_round()
        after = sum(n.load for n in ring.nodes)
        assert after == pytest.approx(before)
        # Nobody who was light ends above their target.
        targets = report.classification_before.targets
        node_by_index = {n.index: n for n in ring.nodes}
        for idx, cls in report.classification_before.classes.items():
            if cls.value == "light":
                assert node_by_index[idx].load <= targets[idx] + 1e-6
        # Worst overload never increases.
        assert (
            report.unit_loads_after.max()
            <= report.unit_loads_before.max() + 1e-9
        )
        ring.check_invariants()

    @given(seed=st.integers(0, 20), k=st.sampled_from([2, 4, 8]))
    @settings(max_examples=10, deadline=None)
    def test_outcome_quality_insensitive_to_tree_degree(self, seed, k):
        ring = make_ring(seed, 24)
        assign_loads(ring, GaussianLoadModel(mu=1e5, sigma=100.0), rng=seed)
        lb = LoadBalancer(
            ring,
            BalancerConfig(proximity_mode="ignorant", epsilon=0.05, tree_degree=k),
            rng=seed,
        )
        report = lb.run_round()
        assert report.heavy_after <= report.heavy_before
