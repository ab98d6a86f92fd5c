"""Tests for Chord finger-table routing."""

import math

import numpy as np
import pytest

from repro.dht import ChordRing, lookup_hops, lookup_path
from repro.idspace import IdentifierSpace


@pytest.fixture
def ring64():
    ring = ChordRing(IdentifierSpace(bits=16))
    ring.populate(64, 1, [1.0] * 64, rng=123)
    return ring


class TestLookupPath:
    def test_starts_and_ends_correctly(self, ring64):
        start = ring64.virtual_servers[0]
        key = 40000
        path = lookup_path(ring64, start, key)
        assert path[0] == start.vs_id
        assert path[-1] == ring64.successor(key).vs_id

    def test_self_lookup_zero_hops(self, ring64):
        vs = ring64.virtual_servers[5]
        assert lookup_hops(ring64, vs, vs.vs_id) == 0

    def test_own_region_zero_hops(self, ring64):
        vs = ring64.virtual_servers[5]
        region = ring64.region_of(vs)
        assert lookup_hops(ring64, vs, region.start) == 0

    def test_path_vs_ids_valid(self, ring64):
        path = lookup_path(ring64, ring64.virtual_servers[3], 1234)
        for vs_id in path:
            ring64.vs(vs_id)  # raises if unknown

    def test_every_hop_progresses_clockwise(self, ring64):
        space = ring64.space
        key = 60000
        path = lookup_path(ring64, ring64.virtual_servers[0], key)
        dists = [space.distance_cw(v, key) for v in path[:-1]]
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))

    def test_logarithmic_hops(self, ring64):
        """Chord bound: lookups take O(log #VS) hops."""
        gen = np.random.default_rng(0)
        bound = 2 * math.log2(ring64.num_virtual_servers) + 2
        for _ in range(50):
            start = ring64.virtual_servers[int(gen.integers(64))]
            key = int(gen.integers(0, ring64.space.size))
            assert lookup_hops(ring64, start, key) <= bound

    def test_all_owners_reachable_from_one_start(self, ring64):
        start = ring64.virtual_servers[0]
        gen = np.random.default_rng(1)
        for _ in range(30):
            key = int(gen.integers(0, ring64.space.size))
            path = lookup_path(ring64, start, key)
            assert path[-1] == ring64.successor(key).vs_id

    def test_single_vs_ring(self):
        ring = ChordRing(IdentifierSpace(bits=8))
        ring.populate(1, 1, [1.0], rng=0)
        vs = ring.virtual_servers[0]
        assert lookup_hops(ring, vs, 17) == 0

