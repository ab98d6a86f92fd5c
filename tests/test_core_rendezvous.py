"""Tests for the rendezvous pairing loop (Section 3.4 semantics)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ShedCandidate, SpareCapacity, pair_rendezvous
from repro.core.rendezvous import PairingOutcome, pair_entries
from repro.core.records import Assignment
from repro.util.sortedlist import SortedKeyList


def heavy(load, vs_id=0, node=0):
    return ShedCandidate(load=load, vs_id=vs_id, node_index=node)


def light(delta, node=100):
    return SpareCapacity(delta=delta, node_index=node)


class TestPairingRules:
    def test_heaviest_first(self):
        out = pair_rendezvous(
            [heavy(1.0, 1), heavy(9.0, 2)],
            [light(10.0, 50)],
            min_vs_load=0.5,
            level=0,
        )
        assert out.assignments[0].candidate.vs_id == 2

    def test_best_fit_light_choice(self):
        """Light node minimising delta subject to delta >= load."""
        out = pair_rendezvous(
            [heavy(5.0, 1)],
            [light(100.0, 1), light(6.0, 2), light(4.0, 3)],
            min_vs_load=1.0,
            level=0,
        )
        assert out.assignments[0].target_node == 2

    def test_remainder_reinserted_when_at_least_lmin(self):
        out = pair_rendezvous(
            [heavy(5.0, 1), heavy(3.0, 2)],
            [light(9.0, 50)],
            min_vs_load=2.0,
            level=0,
        )
        # After taking 5, remainder 4 >= L_min=2 -> takes the 3 as well.
        assert len(out.assignments) == 2
        assert all(a.target_node == 50 for a in out.assignments)

    def test_remainder_dropped_when_below_lmin(self):
        out = pair_rendezvous(
            [heavy(5.0, 1), heavy(3.0, 2)],
            [light(9.0, 50)],
            min_vs_load=5.0,
            level=0,
        )
        # Remainder 4 < L_min=5: the light node leaves the list.
        assert len(out.assignments) == 1
        assert len(out.leftover_heavy) == 1

    def test_zero_remainder_not_reinserted(self):
        out = pair_rendezvous(
            [heavy(5.0, 1), heavy(5.0, 2)],
            [light(5.0, 50)],
            min_vs_load=0.0,
            level=0,
        )
        assert len(out.assignments) == 1

    def test_unmatchable_heaviest_skipped_by_default(self):
        out = pair_rendezvous(
            [heavy(100.0, 1), heavy(2.0, 2)],
            [light(5.0, 50)],
            min_vs_load=1.0,
            level=0,
        )
        assert len(out.assignments) == 1
        assert out.assignments[0].candidate.vs_id == 2
        assert out.leftover_heavy[0].vs_id == 1

    def test_strict_mode_stops_at_first_unmatchable(self):
        out = pair_rendezvous(
            [heavy(100.0, 1), heavy(2.0, 2)],
            [light(5.0, 50)],
            min_vs_load=1.0,
            level=0,
            strict_heaviest_first=True,
        )
        assert len(out.assignments) == 0
        assert len(out.leftover_heavy) == 2
        assert len(out.leftover_light) == 1

    def test_level_recorded(self):
        out = pair_rendezvous([heavy(1.0)], [light(2.0)], 0.0, level=7)
        assert out.assignments[0].level == 7

    def test_empty_lists(self):
        out = pair_rendezvous([], [], 0.0, level=0)
        assert not out.assignments
        assert not out.leftover_heavy
        assert not out.leftover_light

    def test_only_heavy(self):
        out = pair_rendezvous([heavy(1.0)], [], 0.0, level=0)
        assert len(out.leftover_heavy) == 1

    def test_only_light(self):
        out = pair_rendezvous([], [light(1.0)], 0.0, level=0)
        assert len(out.leftover_light) == 1

    def test_paired_load_property(self):
        out = pair_rendezvous(
            [heavy(3.0, 1), heavy(2.0, 2)], [light(10.0)], 0.0, level=0
        )
        assert sum(a.candidate.load for a in out.assignments) == pytest.approx(5.0)


class TestConservation:
    @given(
        heavy_loads=st.lists(st.floats(0.1, 50.0), max_size=15),
        light_deltas=st.lists(st.floats(0.1, 80.0), max_size=15),
        lmin=st.floats(0.0, 5.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_entries_conserved(self, heavy_loads, light_deltas, lmin):
        hs = [heavy(l, vs_id=i, node=i) for i, l in enumerate(heavy_loads)]
        ls = [light(d, node=100 + i) for i, d in enumerate(light_deltas)]
        out = pair_rendezvous(hs, ls, lmin, level=0)
        # Every heavy entry is either assigned or left over, exactly once.
        assigned_ids = [a.candidate.vs_id for a in out.assignments]
        leftover_ids = [c.vs_id for c in out.leftover_heavy]
        assert sorted(assigned_ids + leftover_ids) == list(range(len(hs)))

    @given(
        heavy_loads=st.lists(st.floats(0.1, 50.0), max_size=12),
        light_deltas=st.lists(st.floats(0.1, 80.0), max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_no_light_node_over_committed(self, heavy_loads, light_deltas):
        """Sum of loads assigned to a light node never exceeds its delta."""
        hs = [heavy(l, vs_id=i, node=i) for i, l in enumerate(heavy_loads)]
        ls = [light(d, node=100 + i) for i, d in enumerate(light_deltas)]
        out = pair_rendezvous(hs, ls, 0.0, level=0)
        committed = {}
        for a in out.assignments:
            committed[a.target_node] = committed.get(a.target_node, 0.0) + a.candidate.load
        deltas = {100 + i: d for i, d in enumerate(light_deltas)}
        for node, total in committed.items():
            assert total <= deltas[node] + 1e-9

    @given(
        heavy_loads=st.lists(st.floats(0.1, 20.0), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_ample_capacity_pairs_everything(self, heavy_loads):
        hs = [heavy(l, vs_id=i, node=i) for i, l in enumerate(heavy_loads)]
        ls = [light(sum(heavy_loads) + 1.0, node=200)]
        out = pair_rendezvous(hs, ls, 0.0, level=0)
        assert len(out.assignments) == len(hs)


def sorted_list_reference(hs, ls, min_vs_load, level, strict=False):
    """The pairing loop over two ``SortedKeyList``s — the object-list
    implementation the id kernel replaced, kept as its specification."""
    heavy_list = SortedKeyList(hs, key=lambda c: c.load)
    light_list = SortedKeyList(ls, key=lambda s: s.delta)
    outcome = PairingOutcome()
    while heavy_list and light_list:
        candidate = heavy_list.peek_max()
        idx = light_list.index_first_at_least(candidate.load)
        if idx is None:
            heavy_list.pop_max()
            outcome.leftover_heavy.append(candidate)
            if strict:
                break
            continue
        heavy_list.pop_max()
        spare = light_list.pop_at(idx)
        outcome.assignments.append(
            Assignment(candidate=candidate, target_node=spare.node_index, level=level)
        )
        remainder = spare.delta - candidate.load
        if remainder >= min_vs_load and remainder > 0:
            light_list.add(SpareCapacity(remainder, spare.node_index))
    outcome.leftover_heavy.extend(heavy_list)
    outcome.leftover_light.extend(light_list)
    return outcome


#: Multiples of 0.5 are exact in binary, so equal values, equal deltas
#: and remainders landing exactly on ``L_min`` are common.
GRID = st.integers(0, 12).map(lambda k: k * 0.5)


@st.composite
def slot(draw, max_size=10):
    hs = [
        heavy(load, vs_id=i, node=i)
        for i, load in enumerate(draw(st.lists(GRID, max_size=max_size)))
    ]
    ls = [
        light(delta, node=100 + i)
        for i, delta in enumerate(draw(st.lists(GRID, max_size=max_size)))
    ]
    return hs, ls


class TestKernelAgainstReference:
    @given(entries=slot(), lmin=GRID, strict=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_object_api_matches_reference(self, entries, lmin, strict):
        hs, ls = entries
        got = pair_rendezvous(hs, ls, lmin, level=3, strict_heaviest_first=strict)
        assert got == sorted_list_reference(hs, ls, lmin, level=3, strict=strict)

    def test_remainder_exactly_at_lmin_is_reinserted(self):
        hs, ls = [heavy(2.0, 1), heavy(1.0, 2)], [light(3.0)]
        out = pair_rendezvous(hs, ls, 1.0, level=0)
        assert len(out.assignments) == 2  # 3 - 2 = 1.0 == L_min: reinserted
        assert out == sorted_list_reference(hs, ls, 1.0, level=0)

    def test_slot_that_cannot_pair_returns_lists_unsorted(self):
        value = [3.0, 1.0, 2.0]
        assert pair_entries([0, 1, 2], [], value, 0.0) == ([], [0, 1, 2], [])
        assert pair_entries([], [2, 0, 1], value, 0.0) == ([], [], [2, 0, 1])
        assert pair_entries([0, 1, 2], [], value, 0.0, settle=True) == (
            [],
            [1, 2, 0],
            [],
        )

    @given(
        children=st.lists(slot(max_size=6), min_size=1, max_size=4),
        own=slot(max_size=4),
        lmin=GRID,
        strict=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_deferred_sort_matches_sorting_at_every_slot(
        self, children, own, lmin, strict
    ):
        """Children pair (or cannot) and relay leftovers to a parent that
        pairs last: handing unpairable lists up unsorted ends in exactly
        the reference's settled outcome."""
        # Renumber so every entry is distinct across slots.
        hs_all, ls_all = [], []
        for k, (hs, ls) in enumerate([own] + children):
            hs_all.append(
                [heavy(c.load, vs_id=100 * k + i) for i, c in enumerate(hs)]
            )
            ls_all.append([light(s.delta, node=100 * k + i) for i, s in enumerate(ls)])
        # Reference: every slot pairs over sorted lists, leftovers sorted.
        up_h, up_l, ref_pairs = list(hs_all[0]), list(ls_all[0]), []
        for hs, ls in zip(hs_all[1:], ls_all[1:]):
            out = sorted_list_reference(hs, ls, lmin, level=1, strict=strict)
            ref_pairs += out.assignments
            up_h += out.leftover_heavy
            up_l += out.leftover_light
        root = sorted_list_reference(up_h, up_l, lmin, level=0, strict=strict)
        ref_pairs += root.assignments
        # Kernel: one id space, child slots may defer their sort.
        shed = [c for hs in hs_all for c in hs]
        spare = [s for ls in ls_all for s in ls]
        value = [c.load for c in shed] + [s.delta for s in spare]
        base_l = len(shed)
        ids_h, ids_l, at_h, at_l = [], [], 0, base_l
        for hs, ls in zip(hs_all, ls_all):
            ids_h.append(list(range(at_h, at_h + len(hs))))
            ids_l.append(list(range(at_l, at_l + len(ls))))
            at_h += len(hs)
            at_l += len(ls)
        got_pairs = []
        up_h_ids, up_l_ids = list(ids_h[0]), list(ids_l[0])
        for h, l in zip(ids_h[1:], ids_l[1:]):
            pairs, left_h, left_l = pair_entries(h, l, value, lmin, strict)
            got_pairs += pairs
            up_h_ids += left_h
            up_l_ids += left_l
        pairs, left_h, left_l = pair_entries(
            up_h_ids, up_l_ids, value, lmin, strict, settle=True
        )
        got_pairs += pairs
        assert [(shed[h], spare[l - base_l].node_index) for h, l in got_pairs] == [
            (a.candidate, a.target_node) for a in ref_pairs
        ]
        assert [shed[i] for i in left_h] == root.leftover_heavy
        assert [
            (value[i], spare[i - base_l].node_index) for i in left_l
        ] == [(s.delta, s.node_index) for s in root.leftover_light]
