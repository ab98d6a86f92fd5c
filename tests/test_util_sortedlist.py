"""Tests for the sorted-list container behind rendezvous pairing."""

import pytest
from hypothesis import given, strategies as st

from repro.util.sortedlist import SortedKeyList


def skl(values):
    return SortedKeyList(values, key=lambda x: x)


class TestBasics:
    def test_empty(self):
        s = skl([])
        assert len(s) == 0
        assert not s

    def test_initial_sorting(self):
        assert skl([3, 1, 2]).to_list() == [1, 2, 3]

    def test_add_keeps_order(self):
        s = skl([1, 5])
        s.add(3)
        assert s.to_list() == [1, 3, 5]

    def test_getitem(self):
        assert skl([2, 1])[0] == 1

    def test_iter(self):
        assert list(skl([2, 1, 3])) == [1, 2, 3]

    def test_keys(self):
        assert skl([3, 1]).keys() == [1, 3]


class TestPops:
    def test_pop_max(self):
        s = skl([1, 9, 5])
        assert s.pop_max() == 9
        assert s.to_list() == [1, 5]

    def test_pop_min(self):
        s = skl([1, 9, 5])
        assert s.pop_min() == 1

    def test_pop_at(self):
        s = skl([1, 5, 9])
        assert s.pop_at(1) == 5
        assert s.to_list() == [1, 9]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            skl([]).pop_max()
        with pytest.raises(IndexError):
            skl([]).pop_min()

    def test_peeks(self):
        s = skl([4, 2])
        assert s.peek_min() == 2
        assert s.peek_max() == 4
        assert len(s) == 2  # peeks do not remove

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            skl([]).peek_max()


class TestBestFit:
    def test_first_at_least_exact(self):
        s = skl([1, 3, 7])
        assert s.index_first_at_least(3) == 1

    def test_first_at_least_between(self):
        s = skl([1, 3, 7])
        assert s.index_first_at_least(4) == 2

    def test_first_at_least_none(self):
        s = skl([1, 3])
        assert s.index_first_at_least(10) is None

    def test_first_at_least_smallest(self):
        s = skl([1, 3])
        assert s.index_first_at_least(0) == 0

    def test_ties_keep_insertion_order(self):
        s = SortedKeyList([("a", 1), ("b", 1)], key=lambda t: t[1])
        s.add(("c", 1))
        assert [x[0] for x in s] == ["a", "b", "c"]


class TestKeyedObjects:
    def test_key_function(self):
        items = [{"w": 5}, {"w": 1}]
        s = SortedKeyList(items, key=lambda d: d["w"])
        assert s.pop_min() == {"w": 1}


@given(st.lists(st.floats(0, 1e6, allow_nan=False), max_size=50))
def test_always_sorted_after_adds(values):
    s = skl([])
    for v in values:
        s.add(v)
    lst = s.to_list()
    assert lst == sorted(lst)


@given(
    st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30),
    st.floats(0, 100, allow_nan=False),
)
def test_first_at_least_matches_linear_scan(values, threshold):
    s = skl(values)
    idx = s.index_first_at_least(threshold)
    feasible = [v for v in values if v >= threshold]
    if not feasible:
        assert idx is None
    else:
        assert s[idx] == min(feasible)

