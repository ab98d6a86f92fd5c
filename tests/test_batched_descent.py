"""Batched level-synchronous descents and the one key-to-leaf path.

Four contracts from docs/performance.md are pinned here:

* :meth:`~repro.ktree.tree.KnaryTree.descend_batch` materialises exactly
  the nodes the per-key :meth:`~repro.ktree.tree.KnaryTree.ensure_leaf_for_key`
  walk would, and routes every key to the same leaf — the tree shape is
  a pure function of the ring, so the two descent orders must converge,
  over the whole ring and over partition component views alike.
* The bulk ring probe (:meth:`~repro.dht.ChordRing.hosts_with_regions`)
  and the non-validating :meth:`~repro.idspace.Region.trusted`
  constructor agree with their scalar/validating counterparts.
* A partition or quarantine view's KT is an upper cut of the whole
  ring's: :meth:`~repro.ktree.tree.KnaryTree.view_leaves` maps each
  ring leaf to the view leaf a fresh tree over the view reaches, and a
  view-bounded :meth:`~repro.ktree.tree.KnaryTree.descend_batch` stops
  at that same node.
* Every key :class:`~repro.core.LoadBalancer` resolves — reporter and
  VSA keys, of the whole ring and of a partition view — goes through
  one path (leaf directory, then one batched descent over the misses,
  then the view cut) and lands on the leaf a fresh tree over the part's
  ring reaches; the digests stay identical to the object-walk
  reference's.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BalancerConfig, LoadBalancer
from repro.core.reference import SerialLoadBalancer
from repro.dht import RingEventLog, crash_node, join_node, leave_node
from repro.exceptions import RegionError, TreeError
from repro.faults import FaultPlan, PartitionSpec
from repro.idspace import IdentifierSpace, Region
from repro.ktree import KnaryTree
from repro.membership import ComponentRingView
from repro.obs.metrics import MetricsRegistry
from repro.workloads import ParetoLoadModel, apply_load_drift, build_scenario

MODEL = ParetoLoadModel(mu=1e4)


def _ring(seed, num_nodes=60, vs_per_node=3):
    return build_scenario(
        MODEL, num_nodes=num_nodes, vs_per_node=vs_per_node, rng=seed
    ).ring


def _config(tree_degree=2):
    return BalancerConfig(
        proximity_mode="ignorant", epsilon=0.05, tree_degree=tree_degree
    )


def _churn(ring, gen):
    for _ in range(int(gen.integers(1, 3))):
        join_node(
            ring,
            capacity=10.0,
            vs_count=int(gen.integers(1, 4)),
            rng=int(gen.integers(1 << 30)),
        )
    alive = [n for n in ring.alive_nodes if n.virtual_servers]
    if len(alive) > 8:
        victim = alive[int(gen.integers(len(alive)))]
        if int(gen.integers(2)):
            leave_node(ring, victim)
        else:
            crash_node(ring, victim)
    centers = [int(gen.integers(ring.space.size))]
    apply_load_drift(
        ring, MODEL, int(gen.integers(1 << 30)), centers, fraction=0.02
    )


def _view_of(shape, ring):
    """The ring a descent runs over: whole, half the nodes, or one VS."""
    if shape == "ring":
        return ring
    if shape == "view":
        return ComponentRingView(ring, tuple(n.index for n in ring.nodes[::2]))
    solo = next(n for n in ring.nodes if len(n.virtual_servers) == 1)
    return ComponentRingView(ring, (solo.index,))


class TestDescendBatch:
    @pytest.mark.parametrize(
        "k, shape, vs_per_node",
        (
            pytest.param(2, "ring", 3, id="2"),
            pytest.param(8, "ring", 3, id="8"),
            pytest.param(2, "view", 3, id="view-2"),
            pytest.param(8, "view", 3, id="view-8"),
            pytest.param(2, "solo", 1, id="solo-2"),
        ),
    )
    def test_matches_per_key_descent(self, k, shape, vs_per_node):
        ring = _view_of(shape, _ring(10, vs_per_node=vs_per_node))
        keys = np.random.default_rng(0).integers(
            0, ring.space.size, size=400, dtype=np.int64
        )
        per_key_metrics, batched_metrics = MetricsRegistry(), MetricsRegistry()
        per_key = KnaryTree(ring, k, metrics=per_key_metrics)
        batched = KnaryTree(ring, k, metrics=batched_metrics)
        expected = [per_key.ensure_leaf_for_key(int(x)) for x in keys.tolist()]
        slots = batched.descend_batch(keys)
        assert slots.shape == keys.shape
        assert per_key.node_count == batched.node_count
        assert (
            per_key_metrics.counter("ktree.materialized").value
            == batched_metrics.counter("ktree.materialized").value
        )
        ia, ib = per_key.index, batched.index
        for a, b in zip(expected, slots.tolist()):
            assert (ia.start[a], ia.length[a]) == (ib.start[b], ib.length[b])
            assert ia.host[a].vs_id == ib.host[b].vs_id
            assert ia.is_leaf[a] and ib.is_leaf[b]

    def test_children_attach_to_correct_parents(self):
        # Every materialised child must sit in its parent's child-table
        # row at the rank whose split part is its region (guards the
        # batched (slot, digit) gather).
        ring = _ring(11)
        tree = KnaryTree(ring, 2)
        keys = np.random.default_rng(1).integers(
            0, ring.space.size, size=300, dtype=np.int64
        )
        tree.descend_batch(keys)
        index = tree.index
        stack = [0]
        while stack:
            slot = stack.pop()
            region = Region(ring.space, int(index.start[slot]), int(index.length[slot]))
            for rank, child in enumerate(index.child[slot].tolist()):
                if child < 0:
                    continue
                assert index.parent[child] == slot
                part = region.split_part(tree.k, rank)
                assert (index.start[child], index.length[child]) == (
                    part.start,
                    part.length,
                )
                stack.append(child)
        tree.check_invariants()

    def test_repeated_keys_share_leaf_ordinals(self):
        ring = _ring(12)
        tree = KnaryTree(ring, 2)
        key = int(ring.space.size // 3)
        slots = tree.descend_batch(np.asarray([key, key, key], dtype=np.int64))
        assert slots.tolist() == [slots[0]] * 3
        assert tree.index.is_leaf[slots[0]] and tree.index.alive[slots[0]]

    def test_empty_batch(self):
        ring = _ring(13)
        tree = KnaryTree(ring, 2)
        before = tree.node_count
        slots = tree.descend_batch(np.empty(0, dtype=np.int64))
        assert slots.size == 0
        assert tree.node_count == before

    def test_out_of_range_key_rejected(self):
        ring = _ring(14)
        tree = KnaryTree(ring, 2)
        with pytest.raises(TreeError):
            tree.descend_batch(np.asarray([ring.space.size], dtype=np.int64))
        with pytest.raises(TreeError):
            tree.descend_batch(np.asarray([-1], dtype=np.int64))


def _cut_ring(seed):
    """A small Pareto ring plus one node hosting a single virtual server."""
    ring = _ring(seed, num_nodes=24, vs_per_node=3)
    join_node(ring, capacity=10.0, vs_count=1, rng=seed + 1)
    return ring


def _members(ring, shape, fraction, seed):
    nodes = [n for n in ring.alive_nodes if n.virtual_servers]
    if shape == "single-node":
        return (nodes[seed % len(nodes)].index,)
    if shape == "single-vs":
        return (next(n for n in nodes if len(n.virtual_servers) == 1).index,)
    gen = np.random.default_rng(seed)
    picked = [n.index for n in nodes if gen.random() < fraction]
    return tuple(picked) or (nodes[0].index,)


def _assert_cut_matches_view_tree(ring, view, k, keys):
    """Whole-ring leaves cut to ``view`` equal a fresh view tree's leaves."""
    tree = KnaryTree(ring, k)
    index = tree.index
    cut = tree.view_leaves(tree.descend_batch(keys), view)
    bounded_tree = KnaryTree(ring, k)
    bounded = bounded_tree.descend_batch(keys, view)
    reference = KnaryTree(view, k)

    def shape(index, slot):
        return int(index.start[slot]), int(index.length[slot]), int(index.level[slot])

    for i, key in enumerate(keys.tolist()):
        expected = shape(reference.index, reference.ensure_leaf_for_key(key))
        assert shape(index, int(cut[i])) == expected
        assert bounded_tree.index.alive[bounded[i]]
        assert shape(bounded_tree.index, int(bounded[i])) == expected


class TestViewCut:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        k=st.sampled_from((2, 4, 8)),
        shape=st.sampled_from(("fraction", "single-node", "single-vs")),
        fraction=st.sampled_from((0.1, 0.5, 0.9)),
    )
    def test_cut_matches_fresh_view_tree(self, seed, k, shape, fraction):
        ring = _cut_ring(seed)
        view = ComponentRingView(ring, _members(ring, shape, fraction, seed))
        keys = np.random.default_rng(seed + 1).integers(
            0, ring.space.size, size=120, dtype=np.int64
        )
        # Region centers are the keys rounds actually descend.
        centers = view.centers_of(
            np.asarray([vs.vs_id for vs in view.virtual_servers], dtype=np.int64)
        )
        _assert_cut_matches_view_tree(
            ring, view, k, np.concatenate([keys, centers])
        )

    @pytest.mark.parametrize("k", (2, 4, 8))
    def test_cut_after_a_non_member_crashes(self, k):
        # A crash elsewhere on the ring after the view was taken (a crash
        # inside an earlier partition component's VST batch) keeps the
        # view a sub-ring of the whole ring, so the cut still holds.
        ring = _cut_ring(41)
        members = _members(ring, "fraction", 0.5, 41)
        view = ComponentRingView(ring, members)
        outsider = next(
            n for n in ring.alive_nodes
            if n.index not in members and n.virtual_servers
        )
        crash_node(ring, outsider)
        keys = np.random.default_rng(42).integers(
            0, ring.space.size, size=200, dtype=np.int64
        )
        _assert_cut_matches_view_tree(ring, view, k, keys)


class TestBulkRingProbe:
    def test_hosts_with_regions_matches_scalar_probe(self):
        ring = _ring(20)
        keys = np.random.default_rng(2).integers(
            0, ring.space.size, size=500, dtype=np.int64
        )
        hosts, starts, lengths = ring.hosts_with_regions(keys)
        for i, key in enumerate(keys.tolist()):
            vs, start, length = ring.host_with_region(key)
            assert hosts[i] is vs
            assert (int(starts[i]), int(lengths[i])) == (start, length)

    def test_out_of_range_key_rejected(self):
        ring = _ring(21)
        with pytest.raises(Exception):
            ring.hosts_with_regions(
                np.asarray([ring.space.size], dtype=np.int64)
            )


class TestRegionTrusted:
    def test_matches_validating_constructor(self):
        space = IdentifierSpace(bits=16)
        for start, length in ((0, 1), (100, 500), (65535, 65536)):
            assert Region.trusted(space, start, length) == Region(
                space, start, length
            )

    def test_validating_constructor_still_rejects(self):
        space = IdentifierSpace(bits=16)
        with pytest.raises(RegionError):
            Region(space, 0, 0)


class TestDirectoryPatch:
    @pytest.mark.parametrize("seed", (0, 3, 8))
    def test_patched_directory_matches_rebuild(self, seed):
        # Drive a tree through descents and churn; after every refresh
        # the incrementally patched leaf directory must equal one rebuilt
        # from scratch over the same slot columns.
        ring = _ring(seed, num_nodes=40)
        tree = KnaryTree(ring, 2)
        index = tree.index
        log = RingEventLog(ring)
        gen = np.random.default_rng(seed + 50)
        probes = gen.integers(0, ring.space.size, size=64, dtype=np.int64)
        spliced = False
        for _ in range(8):
            tree.descend_batch(
                gen.integers(0, ring.space.size, size=24, dtype=np.int64)
            )
            index.resolve_leaves(probes)  # builds / patches the directory
            _churn(ring, gen)
            delta = log.drain()
            assert delta.dirty is not None
            tree.refresh_dirty(delta.dirty)
            assert index._dir_slots is not None
            spliced |= 0 < len(index._dir_pending) <= max(
                index.DIR_PATCH_FLOOR, index._dir_slots.size // 8
            )
            resolved = index.resolve_leaves(probes)
            patched = (index._dir_starts, index._dir_ends, index._dir_slots)
            index._rebuild_directory()
            rebuilt = (index._dir_starts, index._dir_ends, index._dir_slots)
            for a, b in zip(patched, rebuilt):
                assert np.array_equal(a, b)
            for key, slot in zip(probes.tolist(), resolved.tolist()):
                if slot >= 0:
                    assert index.is_leaf[slot] and index.alive[slot]
                    start = int(index.start[slot])
                    assert start <= key < start + int(index.length[slot])
            tree.check_invariants()
        # At least one refresh was small enough to splice, not re-sort.
        assert spliced


def _run_rounds(seed, rounds=6):
    ring = _ring(seed, num_nodes=80, vs_per_node=4)
    bal = LoadBalancer(ring, _config(), rng=seed + 1)
    gen = np.random.default_rng(seed + 9)
    digests = []
    for rnd in range(rounds):
        digests.append(bal.run_round().canonical_digest())
        if rnd < rounds - 1:
            _churn(ring, gen)
    return bal, digests


#: Two-component partition over rounds 1-2, so parts are views then.
SPLIT = FaultPlan(
    seed=3,
    partitions=(PartitionSpec(at_round=1, duration=2, num_components=2),),
)


def _checking_part_slots(bal, seen):
    """Wrap ``bal._part_slots`` so every key it resolves is checked
    against the leaf a fresh tree over the part's ring reaches."""
    resolve = bal._part_slots

    def checked(part, keys):
        slots = resolve(part, keys)
        fresh = KnaryTree(part.ring, bal.config.tree_degree)
        index = bal._tree.index
        for key, slot in zip(keys.tolist(), slots.tolist()):
            leaf = fresh.ensure_leaf_for_key(key)
            assert (index.start[slot], index.length[slot]) == (
                fresh.index.start[leaf],
                fresh.index.length[leaf],
            )
        shape = "ring" if part.ring is bal.ring else "view"
        caller = sys._getframe(1).f_code.co_name  # _fold_lbi / _sweep_vsa
        seen.add((shape, caller))
        return slots

    bal._part_slots = checked


class TestOneResolutionPath:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1 << 16), k=st.sampled_from((2, 4)))
    def test_part_slots_match_fresh_descent(self, seed, k):
        # Property: after any churn history, every admitted reporter key
        # and every delivered VSA key — of the whole ring and of each
        # partition view — lands on the leaf a fresh tree over the
        # part's ring reaches for it.
        ring = _ring(seed, num_nodes=60, vs_per_node=3)
        bal = LoadBalancer(
            ring, _config(k), rng=seed + 1, faults=SPLIT
        )
        seen: set[tuple[str, str]] = set()
        _checking_part_slots(bal, seen)
        gen = np.random.default_rng(seed + 9)
        for _ in range(5):
            bal.run_round()
            _churn(ring, gen)
        assert seen == {
            (shape, caller)
            for shape in ("ring", "view")
            for caller in ("_fold_lbi", "_sweep_vsa")
        }
        assert bal.descent_stats["miss_descents"] > 0


class TestDescentEconomy:
    def test_serial_identity(self):
        seed = 33
        ring_s = _ring(seed, num_nodes=80, vs_per_node=4)
        serial = SerialLoadBalancer(ring_s, _config(), rng=seed + 1)
        gen = np.random.default_rng(seed + 9)
        digests_s = []
        for rnd in range(6):
            digests_s.append(serial.run_round().canonical_digest())
            if rnd < 5:
                _churn(ring_s, gen)
        _, digests_b = _run_rounds(seed)
        assert digests_s == digests_b

    def test_reference_holds_no_ring_events(self):
        # The reference builds a fresh tree per part and never drains a
        # ring event log, so it must not keep one open: its pending
        # events stay at zero however much the ring churns.
        ring = _ring(5, num_nodes=400, vs_per_node=2)
        serial = SerialLoadBalancer(ring, _config(), rng=6)
        gen = np.random.default_rng(7)
        for _ in range(5):
            serial.run_round()
            for _ in range(4):
                join_node(
                    ring, capacity=10.0, vs_count=1,
                    rng=int(gen.integers(1 << 30)),
                )
            alive = [n for n in ring.alive_nodes if n.virtual_servers]
            for i in gen.choice(len(alive), size=4, replace=False).tolist():
                leave_node(ring, alive[i])
            log = serial._events
            assert (0 if log is None else log.pending_events) == 0
