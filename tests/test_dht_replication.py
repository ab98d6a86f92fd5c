"""Tests for successor-list replication."""

import itertools

import pytest

from repro.dht import ChordRing, crash_node
from repro.dht.replication import ReplicationManager
from repro.exceptions import DHTError
from repro.idspace import IdentifierSpace


@pytest.fixture
def ring():
    r = ChordRing(IdentifierSpace(bits=14))
    r.populate(8, 3, [1.0] * 8, rng=17)
    return r


class TestPlacement:
    def test_replicas_on_distinct_other_nodes(self, ring):
        mgr = ReplicationManager(ring, replication_factor=2)
        for vs in ring.virtual_servers:
            rs = mgr._replicas[vs.vs_id]
            assert rs.primary_node == vs.owner.index
            assert rs.primary_node not in rs.replica_nodes
            assert len(set(rs.replica_nodes)) == len(rs.replica_nodes) == 2

    def test_replicas_follow_ring_order(self, ring):
        """The first replica is the owner of the next distinctly-owned VS."""
        mgr = ReplicationManager(ring, replication_factor=1)
        vss = ring.virtual_servers
        for i, vs in enumerate(vss):
            expected = None
            for j in range(1, len(vss)):
                cand = vss[(i + j) % len(vss)]
                if cand.owner.index != vs.owner.index:
                    expected = cand.owner.index
                    break
            assert mgr._replicas[vs.vs_id].replica_nodes == (expected,)

    def test_zero_replication(self, ring):
        mgr = ReplicationManager(ring, replication_factor=0)
        for vs in ring.virtual_servers:
            assert mgr._replicas[vs.vs_id].replica_nodes == ()

    def test_negative_factor_rejected(self, ring):
        with pytest.raises(DHTError):
            ReplicationManager(ring, replication_factor=-1)

    def test_factor_capped_by_population(self):
        r = ChordRing(IdentifierSpace(bits=10))
        r.populate(2, 2, [1.0, 1.0], rng=3)
        mgr = ReplicationManager(r, replication_factor=5)
        for vs in r.virtual_servers:
            # only one other node exists
            assert len(mgr._replicas[vs.vs_id].replica_nodes) == 1


class TestCrashTolerance:
    def test_single_crash_loses_nothing(self, ring):
        mgr = ReplicationManager(ring, replication_factor=2)
        for node in ring.nodes:
            availability = mgr.available_after_crash({node.index})
            assert all(availability.values())

    def test_double_crash_tolerated_with_r2(self, ring):
        mgr = ReplicationManager(ring, replication_factor=2)
        for pair in itertools.combinations([n.index for n in ring.nodes], 2):
            availability = mgr.available_after_crash(set(pair))
            assert all(availability.values())

    def test_r0_loses_on_primary_crash(self, ring):
        mgr = ReplicationManager(ring, replication_factor=0)
        victim = ring.nodes[0]
        availability = mgr.available_after_crash({victim.index})
        lost = [vs_id for vs_id, ok in availability.items() if not ok]
        assert set(lost) == {vs.vs_id for vs in victim.virtual_servers}

    def test_refresh_after_crash(self, ring):
        mgr = ReplicationManager(ring, replication_factor=2)
        crash_node(ring, ring.nodes[0])
        mgr.refresh()
        alive = [n.index for n in ring.nodes if n.alive]
        for pair in itertools.combinations(alive, 2):
            assert all(mgr.available_after_crash(set(pair)).values())

