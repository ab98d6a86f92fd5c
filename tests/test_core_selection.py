"""Tests for shed-subset selection (exact vs greedy vs brute force)."""

from bisect import bisect_left
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import select_shed_subset
from repro.core.selection import (
    _PAIR_COMPARE_LIMIT,
    EXACT_POLICY_LIMIT,
    _exact_enum,
    _greedy,
    select_shed_subsets,
)
from repro.exceptions import BalancerError


def brute_force_optimum(loads, excess, max_shed):
    """Reference: minimal (total, size) subset with total >= excess."""
    best = None
    for r in range(0, max_shed + 1):
        for combo in combinations(range(len(loads)), r):
            total = sum(loads[i] for i in combo)
            if total >= excess:
                key = (total, r)
                if best is None or key < best[0]:
                    best = (key, combo)
    return best


class TestBasics:
    def test_zero_excess_sheds_nothing(self):
        assert select_shed_subset([1.0, 2.0], 0.0) == []
        assert select_shed_subset([1.0, 2.0], -5.0) == []

    def test_empty_loads(self):
        assert select_shed_subset([], 5.0) == []

    def test_single_cover(self):
        assert select_shed_subset([1.0, 5.0, 10.0], 4.0) == [1]

    def test_exact_prefers_cheapest_combination(self):
        # excess 6: {5, 1.5} = 6.5 beats {10} = 10.
        assert select_shed_subset([1.5, 5.0, 10.0], 6.0) == [0, 1]

    def test_keep_at_least_blocks_full_shed(self):
        got = select_shed_subset([3.0, 4.0], 100.0, keep_at_least=1)
        assert got == [1]  # best effort: shed the largest, keep one

    def test_keep_at_least_all_blocked(self):
        assert select_shed_subset([3.0], 1.0, keep_at_least=1) == []

    def test_infeasible_best_effort_sheds_largest(self):
        got = select_shed_subset([1.0, 2.0, 3.0], 100.0, keep_at_least=0)
        assert got == [0, 1, 2]

    def test_unknown_policy(self):
        with pytest.raises(BalancerError):
            select_shed_subset([1.0], 1.0, policy="bogus")

    def test_negative_load_rejected(self):
        with pytest.raises(BalancerError):
            select_shed_subset([-1.0], 1.0)

    def test_negative_keep_rejected(self):
        with pytest.raises(BalancerError):
            select_shed_subset([1.0], 1.0, keep_at_least=-1)


class TestExactOptimality:
    @given(
        loads=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=10),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_matches_brute_force_total(self, loads, frac):
        excess = frac * sum(loads)
        got = select_shed_subset(loads, excess, policy="exact", keep_at_least=0)
        got_total = sum(loads[i] for i in got)
        ref = brute_force_optimum(loads, excess, len(loads))
        assert ref is not None
        assert got_total >= excess
        assert got_total == pytest.approx(ref[0][0])

    @given(
        loads=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=8),
        frac=st.floats(0.05, 0.9),
        keep=st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_respects_keep_floor(self, loads, frac, keep):
        excess = frac * sum(loads)
        got = select_shed_subset(loads, excess, policy="exact", keep_at_least=keep)
        assert len(got) <= len(loads) - keep

    def test_indices_sorted_and_unique(self):
        got = select_shed_subset([5.0, 1.0, 3.0, 2.0], 6.0)
        assert got == sorted(set(got))


def _greedy_rebuilding(loads, excess, max_shed):
    """Reference for ``_greedy``: its loop with the sorted-keys list
    rebuilt on every step (O(n^2) in the VS count)."""
    remaining = excess
    available = sorted(range(len(loads)), key=lambda i: loads[i])
    chosen: list[int] = []
    while remaining > 0 and available and len(chosen) < max_shed:
        # Smallest VS that alone covers the remaining excess.
        keys = [loads[i] for i in available]
        pos = bisect_left(keys, remaining)
        if pos < len(available):
            chosen.append(available.pop(pos))
            return sorted(chosen)
        # None covers it: take the largest and continue.
        idx = available.pop()
        chosen.append(idx)
        remaining -= loads[idx]
    return sorted(chosen)


class TestGreedy:
    @given(
        loads=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_greedy_always_feasible_when_possible(self, loads, frac):
        excess = frac * sum(loads)
        got = select_shed_subset(loads, excess, policy="greedy", keep_at_least=0)
        assert sum(loads[i] for i in got) >= excess

    @given(
        loads=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=10),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_never_worse_than_greedy(self, loads, frac):
        excess = frac * sum(loads)
        exact = select_shed_subset(loads, excess, policy="exact", keep_at_least=0)
        greedy = select_shed_subset(loads, excess, policy="greedy", keep_at_least=0)
        assert sum(loads[i] for i in exact) <= sum(loads[i] for i in greedy) + 1e-9

    @given(
        n=st.integers(0, 300),
        data=st.data(),
        frac=st.floats(-0.1, 1.2),
        keep=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_rebuilding_loop(self, n, data, frac, keep):
        loads = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 5.0]),
                    st.floats(0.0, 100.0),
                ),
                min_size=n,
                max_size=n,
            )
        )
        excess = frac * sum(loads)
        max_shed = len(loads) - keep
        assert _greedy(loads, excess, max_shed) == _greedy_rebuilding(
            loads, excess, max_shed
        )

    def test_large_vs_count_falls_back_to_greedy(self):
        loads = [1.0] * 40
        got = select_shed_subset(loads, 10.0, policy="exact", keep_at_least=0)
        assert sum(loads[i] for i in got) >= 10.0


class TestPaperSemantics:
    def test_remaining_load_at_most_target(self):
        """The constraint: L_i - shed_total <= T_i  <=>  shed_total >= excess."""
        loads = [10.0, 20.0, 30.0, 40.0]
        total = sum(loads)
        target = 55.0
        excess = total - target
        got = select_shed_subset(loads, excess, keep_at_least=0)
        remaining = total - sum(loads[i] for i in got)
        assert remaining <= target + 1e-9


def per_node_reference(loads, excess, policy, keep_at_least):
    """The per-node selection rules: validation, infeasible best effort,
    then the specification's exact scan, else greedy."""
    if any(l < 0 for l in loads):
        raise BalancerError("virtual server loads must be non-negative")
    n = len(loads)
    max_shed = n - keep_at_least
    if excess <= 0 or n == 0 or max_shed <= 0:
        return []
    if sum(sorted(loads)[-max_shed:]) < excess:
        order = sorted(range(n), key=loads.__getitem__)
        return sorted(order[-max_shed:])
    if policy == "exact" and n <= EXACT_POLICY_LIMIT:
        return _exact_enum(loads, excess, max_shed)
    return _greedy(loads, excess, max_shed)


#: Tie-heavy loads: repeats, zeros, and values whose sums round equal
#: (0.1 + 0.2 != 0.3, 1e16 absorbs 1.0).
TIE_LOADS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 5.0, 1e16]),
    st.floats(0.0, 10.0),
)


@st.composite
def shed_node(draw, sizes):
    loads = draw(st.lists(TIE_LOADS, min_size=sizes[0], max_size=sizes[1]))
    how = draw(st.sampled_from(["fraction", "subset", "over"]))
    if how == "fraction":
        excess = draw(st.floats(-0.1, 1.4)) * sum(loads)
    elif how == "subset":
        # Exactly some subset's total: the ``rsum >= excess - lsum``
        # boundary, where float rounding decides feasibility.
        chosen = draw(st.lists(st.booleans(), min_size=len(loads), max_size=len(loads)))
        excess = sum(l for l, c in zip(loads, chosen) if c)
    else:
        excess = sum(loads) + draw(st.floats(0.0, 5.0))  # often infeasible
    return loads, excess


#: VS count at which the batched scan stops comparing every subset pair
#: and binary searches instead (2^n pairs per node).
PAIR_COMPARE_WIDTH = _PAIR_COMPARE_LIMIT.bit_length() - 1


class TestBatchedSelection:
    """``select_shed_subsets`` picks exactly what the per-node rules pick.

    Exactly, not approximately: the balancing digests are byte-identical
    across engines only because the batched exact scan picks the same
    indices as the specification (:func:`_exact_enum`), ties included.
    Tie-heavy load vectors (repeated values, zeros) are therefore the
    interesting inputs.
    """

    def _check(self, nodes, policy, keep):
        loads = [l for l, _ in nodes]
        excesses = [e for _, e in nodes]
        expected = [per_node_reference(l, e, policy, keep) for l, e in nodes]
        assert select_shed_subsets(loads, excesses, policy, keep) == expected
        assert [
            select_shed_subset(l, e, policy, keep) for l, e in nodes
        ] == expected

    @given(
        nodes=st.lists(shed_node((0, 9)), max_size=12),
        policy=st.sampled_from(["exact", "greedy"]),
        keep=st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_counts_match_per_node(self, nodes, policy, keep):
        self._check(nodes, policy, keep)

    @given(
        nodes=st.lists(shed_node((8, 9)), min_size=2, max_size=6),
        keep=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_counts_share_one_batch(self, nodes, keep):
        self._check(nodes, "exact", keep)

    @given(
        nodes=st.lists(
            shed_node((PAIR_COMPARE_WIDTH - 1, PAIR_COMPARE_WIDTH + 2)),
            min_size=1,
            max_size=3,
        ),
        keep=st.integers(0, 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_counts_crossing_the_table_limit(self, nodes, keep):
        # The batch's all-pairs comparison table gives way to a per-node
        # binary search above PAIR_COMPARE_WIDTH virtual servers.
        self._check(nodes, "exact", keep)

    @given(
        nodes=st.lists(
            shed_node((EXACT_POLICY_LIMIT - 1, EXACT_POLICY_LIMIT + 2)),
            min_size=1,
            max_size=2,
        ),
        keep=st.integers(0, 2),
    )
    @settings(max_examples=8, deadline=None)
    def test_counts_crossing_the_exact_limit(self, nodes, keep):
        self._check(nodes, "exact", keep)

    def test_infeasible_and_empty_rows_in_one_batch(self):
        loads = [[1.0, 2.0, 3.0], [], [4.0], [1.0, 2.0, 3.0], [2.0, 2.0]]
        excesses = [100.0, 3.0, 1.0, 2.5, 0.0]
        assert select_shed_subsets(loads, excesses, keep_at_least=1) == [
            [1, 2],
            [],
            [],
            [2],
            [],
        ]

    def test_negative_load_anywhere_rejected(self):
        with pytest.raises(BalancerError):
            select_shed_subsets([[1.0, 2.0], [3.0, -0.5]], [0.0, 0.0])

    def test_validation_precedes_an_empty_batch(self):
        with pytest.raises(BalancerError):
            select_shed_subsets([], [], policy="bogus")
        with pytest.raises(BalancerError):
            select_shed_subsets([], [], keep_at_least=-1)
