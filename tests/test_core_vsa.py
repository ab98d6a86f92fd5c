"""Tests for the bottom-up VSA sweep over the tree."""

import pytest

from repro.core import ShedCandidate, SpareCapacity
from repro.core.reference import VSASweep
from repro.dht import ChordRing
from repro.exceptions import BalancerError
from repro.idspace import IdentifierSpace
from repro.ktree import KnaryTree


@pytest.fixture
def ring():
    r = ChordRing(IdentifierSpace(bits=12))
    r.populate(12, 2, [1.0] * 12, rng=6)
    return r


def sweep(ring, threshold=30, strict=False, lmin=0.0, k=2):
    return VSASweep(
        KnaryTree(ring, k),
        threshold=threshold,
        min_vs_load=lmin,
        strict_heaviest_first=strict,
    )


def cand(load, vs_id, node):
    return ShedCandidate(load=load, vs_id=vs_id, node_index=node)


def spare(delta, node):
    return SpareCapacity(delta=delta, node_index=node)


class TestSweepBasics:
    def test_empty_run(self, ring):
        result = sweep(ring).run([])
        assert result.assignments == []
        assert result.entries_published == 0

    def test_single_pair_matches_at_root(self, ring):
        # Far-apart keys, below threshold everywhere: both reach the root.
        result = sweep(ring, threshold=30).run(
            [(0, cand(5.0, 999, 1)), (2048, spare(6.0, 2))]
        )
        assert len(result.assignments) == 1
        assert result.assignments[0].level == 0  # paired at the root

    def test_nearby_keys_pair_below_root_with_low_threshold(self, ring):
        result = sweep(ring, threshold=2).run(
            [(100, cand(5.0, 999, 1)), (101, spare(6.0, 2))]
        )
        assert len(result.assignments) == 1
        assert result.assignments[0].level > 0

    def test_threshold_defers_pairing_upwards(self, ring):
        lo = sweep(ring, threshold=2).run(
            [(100, cand(5.0, 999, 1)), (101, spare(6.0, 2))]
        )
        hi = sweep(ring, threshold=30).run(
            [(100, cand(5.0, 999, 1)), (101, spare(6.0, 2))]
        )
        assert lo.assignments[0].level >= hi.assignments[0].level

    def test_unassigned_heavy_surface_at_root(self, ring):
        result = sweep(ring).run([(0, cand(50.0, 999, 1)), (1, spare(5.0, 2))])
        assert len(result.assignments) == 0
        assert len(result.unassigned_heavy) == 1
        assert len(result.unassigned_light) == 1

    def test_unknown_entry_type_rejected(self, ring):
        with pytest.raises(BalancerError):
            sweep(ring).run([(0, "bogus")])

    def test_negative_threshold_rejected(self, ring):
        with pytest.raises(BalancerError):
            VSASweep(KnaryTree(ring, 2), threshold=-1, min_vs_load=0.0)

    def test_rounds_equal_max_materialised_level(self, ring):
        result = sweep(ring).run([(5, cand(1.0, 999, 1)), (3000, spare(2.0, 2))])
        assert result.rounds >= 1

    def test_pairings_by_level_counter(self, ring):
        result = sweep(ring, threshold=2).run(
            [(100, cand(5.0, 999, 1)), (101, spare(6.0, 2))]
        )
        assert sum(result.pairings_by_level.values()) == 1


class TestConservation:
    def test_entries_partition(self, ring):
        entries = []
        for i in range(10):
            entries.append((i * 400, cand(float(i + 1), 1000 + i, i)))
        for j in range(5):
            entries.append((j * 800 + 7, spare(4.0, 100 + j)))
        result = sweep(ring, threshold=4).run(entries)
        assigned = {a.candidate.vs_id for a in result.assignments}
        unassigned = {c.vs_id for c in result.unassigned_heavy}
        assert assigned | unassigned == {1000 + i for i in range(10)}
        assert not assigned & unassigned

    def test_light_capacity_respected_globally(self, ring):
        entries = [
            (10, cand(3.0, 1000, 0)),
            (20, cand(3.0, 1001, 1)),
            (30, cand(3.0, 1002, 2)),
            (40, spare(7.0, 100)),
        ]
        result = sweep(ring, threshold=1).run(entries)
        total_to_100 = sum(
            a.candidate.load for a in result.assignments if a.target_node == 100
        )
        assert total_to_100 <= 7.0
        assert len(result.assignments) == 2  # 3+3 fits, third does not

    def test_proximal_entries_pair_deeper_than_scattered(self, ring):
        """The locality mechanism: same-key entries meet deep in the tree."""
        near = sweep(ring, threshold=2).run(
            [(500, cand(2.0, 1000, 0)), (500, spare(3.0, 100))]
        )
        far = sweep(ring, threshold=2).run(
            [(0, cand(2.0, 1000, 0)), (2048, spare(3.0, 100))]
        )
        assert near.assignments[0].level > far.assignments[0].level


class TestDegrees:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_all_degrees_pair_feasible_work(self, ring, k):
        entries = [
            (i * 300, cand(2.0, 1000 + i, i)) for i in range(8)
        ] + [
            (i * 300 + 5, spare(2.5, 100 + i)) for i in range(8)
        ]
        result = sweep(ring, threshold=4, k=k).run(entries)
        assert len(result.assignments) == 8
