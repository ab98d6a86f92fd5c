"""Tests for the Chord ring: ownership, regions, transfers, invariants."""

import numpy as np
import pytest

from repro.dht import ChordRing, PhysicalNode, VirtualServer
from repro.exceptions import DHTError, DuplicateIdError, EmptyRingError
from repro.idspace import IdentifierSpace, Region


def tiny_ring(ids, space_bits=8):
    """Ring with explicit VS ids, one node per VS."""
    ring = ChordRing(IdentifierSpace(bits=space_bits))
    for i, vs_id in enumerate(ids):
        node = PhysicalNode(index=i, capacity=1.0)
        ring.nodes.append(node)
        ring.add_virtual_server(node, vs_id)
    return ring


class TestPopulate:
    def test_counts(self, small_ring):
        assert len(small_ring.nodes) == 20
        assert small_ring.num_virtual_servers == 60

    def test_capacities_applied(self, space16):
        ring = ChordRing(space16)
        caps = [float(i + 1) for i in range(5)]
        ring.populate(5, 2, caps, rng=0)
        assert [n.capacity for n in ring.nodes] == caps

    def test_sites_applied(self, space16):
        ring = ChordRing(space16)
        ring.populate(3, 1, [1.0] * 3, rng=0, sites=[7, 8, 9])
        assert [n.site for n in ring.nodes] == [7, 8, 9]

    def test_ids_unique(self, small_ring):
        ids = [vs.vs_id for vs in small_ring.virtual_servers]
        assert len(set(ids)) == len(ids)

    def test_deterministic_by_seed(self, space16):
        r1, r2 = ChordRing(space16), ChordRing(space16)
        r1.populate(10, 2, [1.0] * 10, rng=9)
        r2.populate(10, 2, [1.0] * 10, rng=9)
        assert [v.vs_id for v in r1.virtual_servers] == [
            v.vs_id for v in r2.virtual_servers
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_nodes=0, vs_per_node=1, capacities=[]),
            dict(num_nodes=1, vs_per_node=0, capacities=[1.0]),
            dict(num_nodes=2, vs_per_node=1, capacities=[1.0]),
        ],
    )
    def test_invalid_populate(self, space16, kwargs):
        with pytest.raises(DHTError):
            ChordRing(space16).populate(rng=0, **kwargs)

    def test_too_many_vs_for_space(self):
        ring = ChordRing(IdentifierSpace(bits=3))
        with pytest.raises(DHTError):
            ring.populate(3, 3, [1.0] * 3, rng=0)

    def test_mismatched_sites(self, space16):
        with pytest.raises(DHTError):
            ChordRing(space16).populate(2, 1, [1.0, 1.0], rng=0, sites=[1])


class TestOwnership:
    def test_successor_exact_hit(self):
        ring = tiny_ring([10, 100, 200])
        assert ring.successor(100).vs_id == 100

    def test_successor_between(self):
        ring = tiny_ring([10, 100, 200])
        assert ring.successor(50).vs_id == 100

    def test_successor_wraps(self):
        ring = tiny_ring([10, 100, 200])
        assert ring.successor(201).vs_id == 10
        assert ring.successor(255).vs_id == 10

    def test_successors_vectorised(self):
        ring = tiny_ring([10, 100, 200])
        got = [vs.vs_id for vs in ring.successors(np.array([5, 150, 250]))]
        assert got == [10, 200, 10]

    def test_empty_ring_raises(self, space16):
        with pytest.raises(EmptyRingError):
            ChordRing(space16).successor(0)

    def test_vs_lookup(self):
        ring = tiny_ring([5])
        assert ring.vs(5).vs_id == 5
        with pytest.raises(DHTError):
            ring.vs(6)

    def test_predecessor(self):
        ring = tiny_ring([10, 100, 200])
        assert ring.predecessor_id(100) == 10
        assert ring.predecessor_id(10) == 200  # wraps


class TestRegions:
    def test_region_between(self):
        ring = tiny_ring([10, 100])
        r = ring.region_of(100)
        assert (r.start, r.length) == (11, 90)

    def test_region_wrapping(self):
        ring = tiny_ring([10, 100])
        r = ring.region_of(10)
        assert (r.start, r.length) == (101, 166)

    def test_region_single_vs_is_full_ring(self):
        ring = tiny_ring([42])
        assert ring.region_of(42).is_full_ring

    def test_region_contains_own_id(self):
        ring = tiny_ring([10, 100, 200])
        for vs in ring.virtual_servers:
            assert ring.region_of(vs).contains(vs.vs_id)

    def test_regions_tile_ring(self, small_ring):
        total = sum(small_ring.region_of(v).length for v in small_ring.virtual_servers)
        assert total == small_ring.space.size

    def test_fractions_sum_to_one(self, small_ring):
        assert small_ring.fractions().sum() == pytest.approx(1.0)

    def test_fractions_order_matches_virtual_servers(self):
        ring = tiny_ring([10, 100])
        # ring order: [10, 100]; region of 10 wraps (166 ids), of 100 is 90.
        fr = ring.fractions()
        assert fr[0] == pytest.approx(166 / 256)
        assert fr[1] == pytest.approx(90 / 256)


class TestMutation:
    def test_add_virtual_server(self):
        ring = tiny_ring([10])
        vs = ring.add_virtual_server(ring.nodes[0], 99, load=5.0)
        assert ring.successor(50).vs_id == 99
        assert vs.load == 5.0

    def test_duplicate_id_rejected(self):
        ring = tiny_ring([10])
        with pytest.raises(DuplicateIdError):
            ring.add_virtual_server(ring.nodes[0], 10)

    def test_remove_virtual_server(self):
        ring = tiny_ring([10, 100])
        ring.remove_virtual_server(100)
        assert ring.num_virtual_servers == 1
        assert ring.successor(50).vs_id == 10

    def test_remove_reassigns_region_to_successor(self):
        ring = tiny_ring([10, 100, 200])
        ring.remove_virtual_server(100)
        # 200 now owns (10, 200]
        assert ring.region_of(200).length == 190

    def test_transfer_keeps_ring_structure(self):
        ring = tiny_ring([10, 100])
        before = [(v.vs_id, ring.region_of(v).length) for v in ring.virtual_servers]
        ring.transfer_virtual_server(100, ring.nodes[0])
        after = [(v.vs_id, ring.region_of(v).length) for v in ring.virtual_servers]
        assert before == after
        assert ring.vs(100).owner is ring.nodes[0]
        assert len(ring.nodes[0].virtual_servers) == 2
        assert len(ring.nodes[1].virtual_servers) == 0

    def test_transfer_to_self_is_noop(self):
        ring = tiny_ring([10])
        ring.transfer_virtual_server(10, ring.nodes[0])
        assert len(ring.nodes[0].virtual_servers) == 1

    def test_transfer_to_dead_node_rejected(self):
        ring = tiny_ring([10, 100])
        ring.nodes[1].alive = False
        with pytest.raises(DHTError):
            ring.transfer_virtual_server(10, ring.nodes[1])

    def test_transfer_moves_load(self):
        ring = tiny_ring([10, 100])
        ring.vs(10).load = 7.0
        ring.transfer_virtual_server(10, ring.nodes[1])
        assert ring.nodes[1].load == 7.0
        assert ring.nodes[0].load == 0.0


class TestInvariants:
    def test_check_passes_on_fresh_ring(self, small_ring):
        small_ring.check_invariants()

    def test_check_after_transfers(self, small_ring):
        vss = small_ring.virtual_servers
        small_ring.transfer_virtual_server(vss[0], small_ring.nodes[5])
        small_ring.transfer_virtual_server(vss[1], small_ring.nodes[5])
        small_ring.check_invariants()

    def test_detects_corruption(self):
        ring = tiny_ring([10, 100])
        # Corrupt: steal the VS without updating owner.
        ring.nodes[0].virtual_servers.append(ring.vs(100))
        with pytest.raises(DHTError):
            ring.check_invariants()


class TestVirtualServerAndNode:
    def test_negative_load_rejected(self):
        node = PhysicalNode(0, 1.0)
        with pytest.raises(ValueError):
            VirtualServer(1, node, load=-1.0)

    def test_node_requires_positive_capacity(self):
        with pytest.raises(DHTError):
            PhysicalNode(0, 0.0)

    def test_node_min_vs_load(self):
        node = PhysicalNode(0, 1.0)
        node.virtual_servers = [VirtualServer(1, node, 5.0), VirtualServer(2, node, 2.0)]
        assert node.min_vs_load == 2.0

    def test_min_vs_load_empty_raises(self):
        with pytest.raises(DHTError):
            PhysicalNode(0, 1.0).min_vs_load

    def test_unhost_missing_raises(self):
        a, b = PhysicalNode(0, 1.0), PhysicalNode(1, 1.0)
        vs = VirtualServer(1, a, 0.0)
        with pytest.raises(DHTError):
            b.unhost(vs)
