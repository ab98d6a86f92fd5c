"""Tests for protocol record types."""

import pytest

from repro.core import (
    Assignment,
    LBIRecord,
    ShedCandidate,
    SpareCapacity,
    SystemLBI,
)


class TestLBIRecord:
    def test_merge_sums_and_mins(self):
        a = LBIRecord(load=10.0, capacity=2.0, min_vs_load=3.0)
        b = LBIRecord(load=5.0, capacity=1.0, min_vs_load=1.0)
        m = a.merge(b)
        assert (m.load, m.capacity, m.min_vs_load) == (15.0, 3.0, 1.0)

    def test_merge_commutative(self):
        a = LBIRecord(1.0, 1.0, 0.5)
        b = LBIRecord(2.0, 3.0, 0.2)
        assert a.merge(b) == b.merge(a)

    def test_merge_associative(self):
        a, b, c = LBIRecord(1, 1, 1), LBIRecord(2, 2, 2), LBIRecord(3, 3, 0.5)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(load=-1.0, capacity=1.0, min_vs_load=0.0),
            dict(load=1.0, capacity=0.0, min_vs_load=0.0),
            dict(load=1.0, capacity=1.0, min_vs_load=-0.1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LBIRecord(**kwargs)


class TestSystemLBI:
    def test_ratio(self):
        lbi = SystemLBI(total_load=10.0, total_capacity=4.0, min_vs_load=0.1)
        assert lbi.load_per_capacity == 2.5

    def test_from_record(self):
        rec = LBIRecord(load=6.0, capacity=3.0, min_vs_load=0.5)
        lbi = SystemLBI.from_record(rec)
        assert lbi.total_load == 6.0
        assert lbi.total_capacity == 3.0
        assert lbi.min_vs_load == 0.5

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SystemLBI(total_load=1.0, total_capacity=0.0, min_vs_load=0.0)


class TestVSARecords:
    def test_shed_candidate_fields(self):
        c = ShedCandidate(load=5.0, vs_id=99, node_index=3)
        assert c.load == 5.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            ShedCandidate(load=-1.0, vs_id=1, node_index=0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            SpareCapacity(delta=-0.1, node_index=0)

    def test_assignment_carries_level(self):
        a = Assignment(
            candidate=ShedCandidate(1.0, 2, 3), target_node=7, level=5
        )
        assert a.level == 5
        assert a.target_node == 7
