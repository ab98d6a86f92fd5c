"""Units for the incremental substrate: IntervalSet, the tree's slot
columns, refresh_dirty.

``refresh_dirty`` must be behaviourally identical to the full
:meth:`~repro.ktree.tree.KnaryTree.refresh` whenever the dirty spans
cover every region whose ownership changed — asserted here by driving
twin trees through seeded churn and comparing them node by node.
"""

import numpy as np
import pytest

from repro.core import BalancerConfig, LoadBalancer
from repro.dht import (
    ChordRing,
    PhysicalNode,
    RingEventLog,
    crash_node,
    join_node,
    leave_node,
)
from repro.exceptions import WorkloadError
from repro.idspace import IdentifierSpace, IntervalSet, Region
from repro.ktree import KnaryTree
from repro.obs import MetricsRegistry
from repro.workloads import ParetoLoadModel, apply_load_drift, build_scenario

SPACE = IdentifierSpace(bits=8)


def _hits(spans, idents):
    """Which single identifiers the set contains (unit-length arcs)."""
    idents = np.asarray(idents, dtype=np.int64)
    return spans.overlaps(idents, np.ones_like(idents)).tolist()


class TestIntervalSet:
    def test_merges_overlapping_pieces(self):
        spans = IntervalSet(SPACE, [(10, 20), (15, 30), (40, 50)])
        assert len(spans) == 2
        assert _hits(spans, [12, 29, 30, 35, 40]) == [
            True, True, False, False, True,
        ]

    def test_from_regions_splits_wrapping(self):
        wrapping = Region(SPACE, start=250, length=10)  # 250..255, 0..3
        spans = IntervalSet.from_regions(SPACE, [wrapping])
        assert len(spans) == 2
        assert _hits(spans, [252, 3, 4, 249]) == [True, True, False, False]
        # Arcs touching either piece of the wrapped span overlap it.
        starts = np.array([0, 4, 200, 240, 255])
        lengths = np.array([1, 100, 50, 10, 1])
        assert spans.overlaps(starts, lengths).tolist() == [
            True, False, False, False, True,
        ]

    def test_overlap_edges_are_half_open(self):
        spans = IntervalSet(SPACE, [(10, 20), (40, 50)])
        starts = np.array([0, 0, 20, 19, 25, 0, 30, 50, 15])
        lengths = np.array([10, 11, 20, 1, 100, 256, 10, 206, 0])
        assert spans.overlaps(starts, lengths).tolist() == [
            False, True, False, True, True, True, False, False, False,
        ]
        empty = IntervalSet(SPACE, [])
        assert empty.overlaps(starts, lengths).tolist() == [False] * 9

    def test_empty_is_falsy(self):
        assert not IntervalSet(SPACE, [])
        assert IntervalSet(SPACE, [(1, 2)])


def _small_ring(seed, num_nodes=40):
    return build_scenario(
        ParetoLoadModel(mu=1e4), num_nodes=num_nodes, vs_per_node=3, rng=seed
    ).ring


def _quarter_ring():
    """Four virtual servers owning the quarters of an 8-bit ring."""
    ring = ChordRing(IdentifierSpace(bits=8))
    node = PhysicalNode(index=0, capacity=1.0)
    ring.nodes.append(node)
    for vs_id in (63, 127, 191, 255):
        ring.add_virtual_server(node, vs_id)
    return ring, node


class TestTreeIndex:
    def test_slots_stable_and_ancestors_registered(self):
        ring = _small_ring(1)
        tree = KnaryTree(ring, 2)
        index = tree.index
        key = np.array([123456], dtype=np.int64)
        slot = int(tree.descend_batch(key)[0])
        assert int(tree.descend_batch(key)[0]) == slot
        assert tree.ensure_leaf_for_key(123456) == slot
        # The whole ancestor chain is live and linked, root-down.
        current = slot
        while index.parent[current] >= 0:
            parent = int(index.parent[current])
            assert index.alive[current] and not index.is_leaf[parent]
            assert index.level[current] == index.level[parent] + 1
            assert index.child[parent, index.child_rank[current]] == current
            current = parent
        assert current == 0 and index.level[0] == 0

    def test_stamp_paths_counts_fresh_union(self):
        ring = _small_ring(2)
        tree = KnaryTree(ring, 2)
        index = tree.index
        keys = [int(k) for k in np.random.default_rng(0).integers(
            0, ring.space.size, size=25
        )]
        slots = tree.descend_batch(np.asarray(keys, dtype=np.int64))
        index.new_stamp()
        fresh, count, height = index.stamp_paths(slots)
        # The stamped union equals what a fresh lazy tree materialises
        # for the same keys.
        twin = KnaryTree(ring, 2)
        for k in keys:
            twin.ensure_leaf_for_key(k)
        assert count == twin.node_count
        assert height == twin.height()
        assert fresh.size == count
        # Re-stamping the same paths in the same generation adds nothing.
        again, count2, height2 = index.stamp_paths(slots)
        assert count2 == 0 and height2 == 0 and again.size == 0

    def test_drop_and_leaf_flip_invalidate(self):
        ring, node = _quarter_ring()
        tree = KnaryTree(ring, 2)
        index = tree.index
        probe = np.array([10], dtype=np.int64)
        slot = int(tree.descend_batch(probe)[0])
        assert (int(index.start[slot]), int(index.length[slot])) == (0, 64)
        assert index.resolve_leaves(probe).tolist() == [slot]
        # A join inside the leaf's region splits it: the slot turns
        # internal and the directory stops answering with it.
        split = ring.add_virtual_server(node, 31)
        assert tree.refresh()["grown"] == 1
        assert not index.is_leaf[slot]
        assert index.resolve_leaves(probe).tolist() == [-1]
        ring.remove_virtual_server(split)
        tree.refresh()
        assert index.is_leaf[slot]
        assert index.resolve_leaves(probe).tolist() == [slot]
        # Without the leaf's host, [0, 128) is one arc: the parent turns
        # leaf and the pruned child's slot retires.
        parent = int(index.parent[slot])
        ring.remove_virtual_server(63)
        assert tree.refresh()["pruned"] == 1
        assert not index.alive[slot]
        assert index.resolve_leaves(probe).tolist() == [parent]
        assert index.host[slot] is None
        assert (index.child[parent] == -1).all()
        tree.check_invariants()
        # The retired slot is the next one handed out, and the directory
        # answers with it again once it holds a live leaf.
        size = len(index)
        ring.add_virtual_server(node, 63)
        assert tree.refresh()["grown"] == 1
        assert int(tree.descend_batch(probe)[0]) == slot
        assert len(index) == size
        assert index.resolve_leaves(probe).tolist() == [slot]
        tree.check_invariants()


def test_retired_slots_are_reused():
    """Under steady churn the slot columns grow only to the peak live count.

    Every round repairs the persistent tree (retiring pruned slots) and
    then descends (registering new ones); registration reuses retired
    slots before appending, so no round leaves more slots than the most
    nodes the tree has ever held at once.
    """
    ring = build_scenario(
        ParetoLoadModel(mu=1e4), num_nodes=400, vs_per_node=3, rng=3
    ).ring
    metrics = MetricsRegistry()
    balancer = LoadBalancer(
        ring,
        BalancerConfig(proximity_mode="ignorant", epsilon=0.05),
        rng=4,
        metrics=metrics,
    )
    gen = np.random.default_rng(5)
    balancer.run_round()
    tree = balancer._tree
    peak = tree.index.live
    for _ in range(12):
        for _ in range(3):
            join_node(ring, capacity=10.0, vs_count=3, rng=int(gen.integers(1 << 30)))
        alive = [n for n in ring.alive_nodes if n.virtual_servers]
        for i in gen.choice(len(alive), size=3, replace=False).tolist():
            leave_node(ring, alive[i])
        balancer.run_round()
        assert balancer._tree is tree  # repaired, never rebuilt
        peak = max(peak, tree.index.live)
    assert metrics.counter("ktree.pruned").value > 0
    assert len(tree.index) == peak
    tree.check_invariants()


def _assert_same_tree(a, b):
    """Structural equality of two trees (regions, leafness, hosts)."""
    stack = [(0, 0)]
    ia, ib = a.index, b.index
    while stack:
        sa, sb = stack.pop()
        assert (ia.start[sa], ia.length[sa]) == (ib.start[sb], ib.length[sb])
        assert ia.is_leaf[sa] == ib.is_leaf[sb]
        assert ia.host[sa].vs_id == ib.host[sb].vs_id
        kids_a, kids_b = ia.child[sa], ib.child[sb]
        assert ((kids_a >= 0) == (kids_b >= 0)).all()
        stack.extend(zip(kids_a[kids_a >= 0], kids_b[kids_b >= 0]))
    assert a.node_count == b.node_count


class TestRefreshDirty:
    @pytest.mark.parametrize("seed", (0, 5, 9))
    def test_equivalent_to_full_refresh_under_churn(self, seed):
        ring = _small_ring(seed)
        dirty_tree = KnaryTree(ring, 2)
        full_tree = KnaryTree(ring, 2)
        log = RingEventLog(ring)
        gen = np.random.default_rng(seed + 100)
        for _ in range(6):
            for k in gen.integers(0, ring.space.size, size=20):
                dirty_tree.ensure_leaf_for_key(int(k))
                full_tree.ensure_leaf_for_key(int(k))
            for _ in range(int(gen.integers(1, 4))):
                join_node(
                    ring,
                    capacity=10.0,
                    vs_count=int(gen.integers(1, 4)),
                    rng=int(gen.integers(1 << 30)),
                )
            alive = [n for n in ring.alive_nodes if n.virtual_servers]
            if len(alive) > 4:
                victim = alive[int(gen.integers(len(alive)))]
                if int(gen.integers(2)):
                    leave_node(ring, victim)
                else:
                    crash_node(ring, victim)
            delta = log.drain()
            assert not delta.full_reset and delta.dirty is not None
            dirty_tree.refresh_dirty(delta.dirty)
            full_tree.refresh()
            _assert_same_tree(dirty_tree, full_tree)
            dirty_tree.check_invariants()
            full_tree.check_invariants()

    def test_empty_spans_do_nothing(self):
        ring = _small_ring(6)
        tree = KnaryTree(ring, 2)
        tree.ensure_leaf_for_key(5)
        before = tree.node_count
        counters = tree.refresh_dirty(IntervalSet(ring.space, []))
        assert counters == {"replanted": 0, "pruned": 0, "grown": 0}
        assert tree.node_count == before

    def test_delta_names_pruned_and_flipped_nodes(self):
        ring = _small_ring(7)
        tree = KnaryTree(ring, 2)
        for k in range(0, ring.space.size, ring.space.size // 64):
            tree.ensure_leaf_for_key(k)
        log = RingEventLog(ring)
        gen = np.random.default_rng(11)
        # Enough departures to force pruning somewhere.
        for _ in range(8):
            alive = [n for n in ring.alive_nodes if n.virtual_servers]
            if len(alive) <= 4:
                break
            leave_node(ring, alive[int(gen.integers(len(alive)))])
        delta = log.drain()
        assert delta.dirty is not None
        index = tree.index
        size = len(index)
        was_alive = index.alive[:size].copy()
        was_leaf = index.is_leaf[:size].copy()
        counters = tree.refresh_dirty(delta.dirty)
        # The columns name exactly the nodes the repair pruned and flipped.
        alive, leaf = index.alive[:size], index.is_leaf[:size]
        assert counters["pruned"] > 0
        assert int((was_alive & ~alive).sum()) == counters["pruned"]
        assert alive[0]
        assert int((alive & was_leaf & ~leaf).sum()) == counters["grown"]
        assert (alive & ~was_leaf & leaf).any()
        tree.check_invariants()


class TestRingEventLog:
    def test_records_and_drains(self):
        ring = _small_ring(8)
        log = RingEventLog(ring)
        assert log.drain().empty
        node = join_node(ring, capacity=5.0, vs_count=2, rng=3)
        assert log.pending_events == 2
        delta = log.drain()
        assert len(delta.event_ids) == 2
        assert not delta.full_reset
        assert delta.dirty is not None and bool(delta.dirty)
        # Transfers fire no structural events.
        target = next(n for n in ring.alive_nodes if n is not node)
        ring.transfer_virtual_server(node.virtual_servers[0], target)
        assert log.drain().empty

    def test_bulk_forces_full_reset(self):
        ring = ChordRing(IdentifierSpace(bits=16))
        log = RingEventLog(ring)
        ring.populate(8, 2, capacities=[1.0] * 8, rng=1)
        delta = log.drain()
        assert delta.full_reset

    def test_unresolved_drain_skips_span_derivation(self):
        ring = _small_ring(9)
        log = RingEventLog(ring)
        join_node(ring, capacity=5.0, vs_count=1, rng=4)
        delta = log.drain(resolve=False)
        assert delta.event_ids and delta.dirty is None


class TestDriftHelpers:
    def test_window_selects_wrapped_ids(self):
        ring = _small_ring(10)
        center = 0
        inside = {
            vs.vs_id
            for vs in __import__("repro.workloads.drift", fromlist=["w"]).window_virtual_servers(
                ring, center, 0.25
            )
        }
        size = ring.space.size
        length = size // 4
        start = (center - length // 2) % size
        expected = {
            vs.vs_id
            for vs in ring.virtual_servers
            if (vs.vs_id - start) % size < length
        }
        assert inside == expected

    def test_apply_load_drift_redraws_once(self):
        ring = _small_ring(11)
        before = {vs.vs_id: vs.load for vs in ring.virtual_servers}
        touched = apply_load_drift(
            ring, ParetoLoadModel(mu=1e4), 5, [0, 1], fraction=0.1
        )
        after = {vs.vs_id: vs.load for vs in ring.virtual_servers}
        changed = [k for k in before if before[k] != after[k]]
        assert 0 < len(changed) <= touched

    def test_bad_fraction_rejected(self):
        ring = _small_ring(12)
        with pytest.raises(WorkloadError):
            apply_load_drift(ring, ParetoLoadModel(mu=1.0), 1, [0], fraction=0.0)
