"""Unit + property tests for ring regions (arcs)."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import RegionError
from repro.idspace import IdentifierSpace, Region

SPACE = IdentifierSpace(bits=8)


def region(start, length, space=SPACE):
    return Region(space, start, length)


class TestConstruction:
    def test_full_ring(self):
        r = Region.full(SPACE)
        assert r.length == 256
        assert r.is_full_ring

    @pytest.mark.parametrize("length", [0, -1, 257])
    def test_invalid_length(self, length):
        with pytest.raises(RegionError):
            region(0, length)

    def test_end_property(self):
        assert region(250, 12).end == 6

    def test_fraction(self):
        assert region(0, 64).fraction == 0.25


class TestContains:
    def test_contains_start(self):
        assert region(5, 10).contains(5)

    def test_excludes_end(self):
        assert not region(5, 10).contains(15)

    def test_wrap_contains(self):
        r = region(250, 12)
        assert r.contains(255)
        assert r.contains(0)
        assert not r.contains(100)

    def test_full_contains_all(self):
        assert Region.full(SPACE).contains(200)


class TestCovers:
    def test_covers_subregion(self):
        assert region(10, 20).covers(region(12, 5))

    def test_covers_itself(self):
        assert region(10, 20).covers(region(10, 20))

    def test_does_not_cover_overhang(self):
        assert not region(10, 20).covers(region(25, 10))

    def test_covers_wrapping(self):
        assert region(250, 20).covers(region(255, 5))

    def test_full_covers_anything(self):
        assert Region.full(SPACE).covers(region(77, 100))

    def test_partial_never_covers_full(self):
        assert not region(0, 255).covers(Region.full(SPACE))

    def test_paper_leaf_example(self):
        # Paper: KT node region [3,5] is covered by VS region [3,6]
        # (inclusive intervals -> half-open [3,6) in [3,7)).
        kt = Region(SPACE, 3, 3)
        vs = Region(SPACE, 3, 4)
        assert vs.covers(kt)

    def test_cross_space_raises(self):
        other = Region(IdentifierSpace(bits=4), 0, 4)
        with pytest.raises(RegionError):
            region(0, 10).covers(other)


class TestSplit:
    def test_split_even(self):
        parts = region(0, 12).split(3)
        assert [(p.start, p.length) for p in parts] == [(0, 4), (4, 4), (8, 4)]

    def test_split_remainder_goes_first(self):
        parts = region(0, 13).split(3)
        assert [p.length for p in parts] == [5, 4, 4]

    def test_split_wrapping(self):
        parts = region(250, 12).split(2)
        assert [(p.start, p.length) for p in parts] == [(250, 6), (0, 6)]

    def test_split_full_ring(self):
        parts = Region.full(SPACE).split(2)
        assert [(p.start, p.length) for p in parts] == [(0, 128), (128, 128)]

    def test_split_too_small(self):
        with pytest.raises(RegionError):
            region(0, 2).split(3)

    def test_split_degree_must_be_at_least_two(self):
        with pytest.raises(RegionError):
            region(0, 10).split(1)

    @given(
        start=st.integers(0, 255),
        length=st.integers(2, 256),
        k=st.integers(2, 8),
    )
    def test_split_tiles_region_exactly(self, start, length, k):
        if length < k:
            return
        r = Region(SPACE, start, length)
        parts = r.split(k)
        # Parts are contiguous, non-overlapping, and sum to the region.
        assert sum(p.length for p in parts) == length
        cursor = start
        for p in parts:
            assert p.start == cursor
            assert r.covers(p)
            cursor = SPACE.wrap(cursor + p.length)
        assert cursor == r.end

    @given(start=st.integers(0, 255), length=st.integers(1, 256))
    def test_center_inside(self, start, length):
        r = Region(SPACE, start, length)
        assert r.contains(r.center)


class TestSplitPartAndChildIndex:
    @given(
        start=st.integers(0, 255),
        length=st.integers(2, 256),
        k=st.integers(2, 8),
    )
    def test_split_part_matches_full_split(self, start, length, k):
        if length < k:
            return
        r = Region(SPACE, start, length)
        parts = r.split(k)
        for i in range(k):
            assert r.split_part(k, i) == parts[i]

    @given(
        start=st.integers(0, 255),
        length=st.integers(2, 256),
        k=st.integers(2, 8),
        offset=st.integers(0, 255),
    )
    def test_child_index_matches_containment_scan(self, start, length, k, offset):
        if length < k:
            return
        r = Region(SPACE, start, length)
        key = SPACE.wrap(start + offset % length)
        idx = r.child_index_for(k, key)
        parts = r.split(k)
        expected = next(i for i, p in enumerate(parts) if p.contains(key))
        assert idx == expected

    def test_child_index_outside_region_rejected(self):
        r = region(0, 10)
        with pytest.raises(RegionError):
            r.child_index_for(2, 20)

    def test_split_part_bad_index(self):
        with pytest.raises(RegionError):
            region(0, 10).split_part(2, 2)

    def test_split_part_too_small(self):
        with pytest.raises(RegionError):
            region(0, 2).split_part(3, 0)
