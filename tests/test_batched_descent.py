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
  ring's: :meth:`~repro.ktree.index.TreeIndex.view_leaves` maps each
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
from repro.ktree import KnaryTree, TreeIndex
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
        leaves, ordinals = batched.descend_batch(keys)
        assert ordinals.shape == keys.shape
        assert per_key.node_count == batched.node_count
        assert (
            per_key_metrics.counter("ktree.materialized").value
            == batched_metrics.counter("ktree.materialized").value
        )
        for i in range(keys.size):
            a, b = expected[i], leaves[ordinals[i]]
            assert (a.region.start, a.region.length) == (
                b.region.start,
                b.region.length,
            )
            assert a.host_vs.vs_id == b.host_vs.vs_id
            assert a.is_leaf and b.is_leaf

    def test_children_attach_to_correct_parents(self):
        # Every materialised child must sit in its parent's child list at
        # the rank whose split part is its region (guards the batched
        # frontier-to-parent indexing).
        ring = _ring(11)
        tree = KnaryTree(ring, 2)
        keys = np.random.default_rng(1).integers(
            0, ring.space.size, size=300, dtype=np.int64
        )
        tree.descend_batch(keys)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            for rank, child in enumerate(node.children):
                if child is None:
                    continue
                assert child.parent is node
                part = node.region.split_part(tree.k, rank)
                assert (child.region.start, child.region.length) == (
                    part.start,
                    part.length,
                )
                stack.append(child)
        tree.check_invariants()

    def test_repeated_keys_share_leaf_ordinals(self):
        ring = _ring(12)
        tree = KnaryTree(ring, 2)
        key = int(ring.space.size // 3)
        leaves, ordinals = tree.descend_batch(
            np.asarray([key, key, key], dtype=np.int64)
        )
        assert len(leaves) == 1
        assert ordinals.tolist() == [0, 0, 0]

    def test_empty_batch(self):
        ring = _ring(13)
        tree = KnaryTree(ring, 2)
        before = tree.node_count
        leaves, ordinals = tree.descend_batch(np.empty(0, dtype=np.int64))
        assert leaves == [] and ordinals.size == 0
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
    index = TreeIndex(tree)
    leaves, ordinals = tree.descend_batch(keys)
    ring_slots = np.asarray(
        [index.slot(leaf) for leaf in leaves], dtype=np.int64
    )[ordinals]
    cut = index.view_leaves(ring_slots, view)
    bounded, bounded_ordinals = KnaryTree(ring, k).descend_batch(keys, view)
    reference = KnaryTree(view, k)
    for i, key in enumerate(keys.tolist()):
        want = reference.ensure_leaf_for_key(key)
        expected = (want.region.start, want.region.length, want.level)
        slot = int(cut[i])
        got = (int(index.start[slot]), int(index.length[slot]), int(index.level[slot]))
        assert got == expected
        stop = bounded[bounded_ordinals[i]]
        assert (stop.region.start, stop.region.length, stop.level) == expected


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
        # Drive an indexed tree through churn; after every refresh the
        # incrementally patched leaf directory must answer exactly like
        # a directory rebuilt from scratch on a twin index.
        ring = _ring(seed, num_nodes=40)
        tree = KnaryTree(ring, 2)
        index = TreeIndex(tree)
        log = RingEventLog(ring)
        gen = np.random.default_rng(seed + 50)
        probes = gen.integers(0, ring.space.size, size=64, dtype=np.int64)
        for _ in range(8):
            for k in gen.integers(0, ring.space.size, size=24):
                index.slot(tree.ensure_leaf_for_key(int(k)))
            index.resolve_leaves(probes)  # builds / patches the directory
            _churn(ring, gen)
            delta = log.drain()
            assert delta.dirty is not None
            refresh = tree.refresh_dirty(delta.dirty)
            for node in refresh.pruned_nodes:
                index.drop(node)
            for node in refresh.became_leaf:
                index.set_leaf(node, True)
            for node in refresh.became_internal:
                index.set_leaf(node, False)
            patched = index.resolve_leaves(probes)
            twin = TreeIndex(tree)
            for slot in np.flatnonzero(index.alive).tolist():
                twin.slot(index.node_at(slot))
            rebuilt = twin.resolve_leaves(probes)
            hit = patched >= 0
            assert (hit == (rebuilt >= 0)).all()
            for a, b in zip(patched[hit].tolist(), rebuilt[hit].tolist()):
                assert index.node_at(a) is twin.node_at(b)


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
        index = bal._index
        for key, slot in zip(keys.tolist(), slots.tolist()):
            leaf = fresh.ensure_leaf_for_key(key)
            assert (int(index.start[slot]), int(index.length[slot])) == (
                leaf.region.start,
                leaf.region.length,
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
