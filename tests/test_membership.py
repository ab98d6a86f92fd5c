"""Unit tests for the membership subsystem (partition tolerance).

Covers the three layers independently of the balancer integration
(which ``test_core_balancer``/``test_parallel_determinism`` exercise):

* :class:`~repro.faults.PartitionSpec` / :class:`~repro.faults.FaultPlan`
  validation — malformed or overlapping partition windows are rejected
  at plan construction;
* :class:`~repro.membership.ComponentRingView` — the per-component ring
  facade re-tiles regions so each side of a split is internally
  consistent;
* :class:`~repro.membership.MembershipManager` — the epoch state
  machine: seeded/explicit activation, in-flight suspension, and the
  heal protocol's commit/rollback reconciliation plus its conservation
  gate (including the ``corrupt_heal`` negative control);
* :class:`~repro.core.lbi.AggregateSanity` — the aggregate defense:
  implausible or cross-epoch reports are quarantined with last-good
  fallback.
"""

import numpy as np
import pytest

from repro.core.lbi import AggregateSanity
from repro.core.records import Assignment, ShedCandidate
from repro.dht import ChordRing
from repro.exceptions import (
    ConservationError,
    DHTError,
    FaultPlanError,
)
from repro.faults import FaultInjector, FaultPlan, PartitionSpec
from repro.faults.stats import FaultRoundStats
from repro.idspace import IdentifierSpace
from repro.ktree import KnaryTree
from repro.membership import (
    ComponentRingView,
    MembershipManager,
    MembershipView,
)


def build_ring(nodes=12, vs_per_node=3, seed=13, bits=12):
    ring = ChordRing(IdentifierSpace(bits=bits))
    ring.populate(nodes, vs_per_node, [1.0] * nodes, rng=seed)
    for i, vs in enumerate(ring.virtual_servers):
        vs.load = 1.0 + (i % 5)
    return ring


def split_indices(ring):
    indices = sorted(n.index for n in ring.alive_nodes)
    half = len(indices) // 2
    return tuple(indices[:half]), tuple(indices[half:])


class TestPartitionSpecValidation:
    def test_defaults_are_valid(self):
        spec = PartitionSpec()
        assert spec.heal_round == spec.at_round + spec.duration

    def test_rejects_negative_round_and_duration(self):
        with pytest.raises(FaultPlanError):
            PartitionSpec(at_round=-1)
        with pytest.raises(FaultPlanError):
            PartitionSpec(duration=0)

    def test_rejects_degenerate_component_shapes(self):
        with pytest.raises(FaultPlanError):
            PartitionSpec(num_components=1)
        with pytest.raises(FaultPlanError):
            PartitionSpec(components=((0, 1),))
        with pytest.raises(FaultPlanError):
            PartitionSpec(components=((0, 1), ()))
        with pytest.raises(FaultPlanError):
            PartitionSpec(components=((0, 1), (1, 2)))
        with pytest.raises(FaultPlanError):
            PartitionSpec(components=((0,), (-1,)))

    def test_plan_rejects_overlapping_windows(self):
        first = PartitionSpec(at_round=0, duration=3)
        second = PartitionSpec(at_round=2, duration=1)
        with pytest.raises(FaultPlanError):
            FaultPlan(seed=1, partitions=(first, second))
        # Back-to-back windows (heal round == next activation) are fine.
        FaultPlan(
            seed=1,
            partitions=(first, PartitionSpec(at_round=3, duration=1)),
        )

    def test_partitions_defeat_is_null(self):
        assert FaultPlan().is_null
        assert not FaultPlan(partitions=(PartitionSpec(),)).is_null
        assert not FaultPlan(corrupt=0.1).is_null


class TestMembershipView:
    def test_component_of_and_assignment(self):
        view = MembershipView(epoch=1, components=((0, 2), (1, 3)))
        assert view.component_of(0) == 0
        assert view.component_of(3) == 1
        assert view.component_of(99) == 0  # unlisted nodes join 0
        assert view.assignment() == {0: 0, 2: 0, 1: 1, 3: 1}


class TestComponentRingView:
    def test_nodes_filtered_and_regions_tile(self):
        ring = build_ring()
        left, right = split_indices(ring)
        for members in (left, right):
            view = ComponentRingView(ring, members)
            assert sorted(n.index for n in view.nodes) == sorted(members)
            total = sum(
                view.region_of(vs).length for vs in view.virtual_servers
            )
            assert total == ring.space.size

    def test_successor_only_returns_component_servers(self):
        ring = build_ring()
        left, _ = split_indices(ring)
        view = ComponentRingView(ring, left)
        members = set(left)
        for step in range(0, ring.space.size, ring.space.size // 64):
            assert view.successor(step).owner.index in members

    def test_foreign_vs_unreachable(self):
        ring = build_ring()
        left, right = split_indices(ring)
        view = ComponentRingView(ring, left)
        foreign = ring.nodes[right[0]].virtual_servers[0]
        with pytest.raises(DHTError):
            view.vs(foreign.vs_id)
        with pytest.raises(DHTError):
            view.region_of(foreign.vs_id)

    def test_single_vs_owns_full_ring(self):
        ring = build_ring(vs_per_node=1)
        solo = (sorted(n.index for n in ring.alive_nodes)[0],)
        view = ComponentRingView(ring, solo)
        only = view.virtual_servers[0]
        assert view.region_of(only).length == ring.space.size

    @pytest.mark.parametrize("vs_per_node", (3, 1))
    def test_vector_probes_match_scalar_on_key_grid(self, vs_per_node):
        ring = build_ring(vs_per_node=vs_per_node)
        left, right = split_indices(ring)
        # At one VS per node the one-node view is a single-VS component.
        views = [ComponentRingView(ring, left), ComponentRingView(ring, (left[0],))]
        grid = np.arange(0, ring.space.size, 7, dtype=np.int64)
        for view in views:
            hosts, starts, lengths = view.hosts_with_regions(grid)
            for key, host, start, length in zip(
                grid.tolist(), hosts, starts.tolist(), lengths.tolist()
            ):
                assert (host, start, length) == view.host_with_region(key)
            ids = np.asarray(
                [vs.vs_id for vs in view.virtual_servers], dtype=np.int64
            )
            assert view.centers_of(ids).tolist() == [
                view.region_of(vs_id).center for vs_id in ids.tolist()
            ]
            foreign = ring.nodes[right[0]].virtual_servers[0].vs_id
            for probe in (view.vs, view.region_of):
                with pytest.raises(DHTError):
                    probe(foreign)
            with pytest.raises(DHTError):
                view.centers_of(np.asarray([foreign], dtype=np.int64))

    def test_tree_builds_per_component(self):
        ring = build_ring()
        for members in split_indices(ring):
            tree = KnaryTree(ComponentRingView(ring, members), 2)
            tree.build_full()
            tree.check_invariants()


class TestMembershipManager:
    def make_manager(self, ring, plan=None):
        plan = plan if plan is not None else FaultPlan(
            seed=3, partitions=(PartitionSpec(at_round=1, duration=2),)
        )
        injector = FaultInjector(plan)
        return MembershipManager(ring, injector)

    def test_seeded_activation_is_deterministic(self):
        shapes = []
        for _ in range(2):
            ring = build_ring()
            manager = self.make_manager(ring)
            view = manager.activate(PartitionSpec(), FaultRoundStats())
            assert view is not None
            shapes.append(view.components)
        assert shapes[0] == shapes[1]
        assert len(shapes[0]) == 2
        listed = sorted(i for comp in shapes[0] for i in comp)
        assert listed == sorted(n.index for n in ring.alive_nodes)

    def test_explicit_components_respected(self):
        ring = build_ring()
        left, right = split_indices(ring)
        manager = self.make_manager(ring)
        view = manager.activate(
            PartitionSpec(components=(left, right)), FaultRoundStats()
        )
        assert view is not None
        assert view.components == (left, right)
        assert manager.injector.partition_active

    def test_begin_round_lifecycle_bumps_epochs(self):
        ring = build_ring()
        manager = self.make_manager(ring)
        stats = FaultRoundStats()
        assert manager.begin_round(0, stats) == (None, None)
        view, pending = manager.begin_round(1, stats)
        assert view is not None and pending is None
        assert manager.epoch == 1
        view2, _ = manager.begin_round(2, stats)
        assert view2 is view  # still inside the window
        healed_view, _ = manager.begin_round(3, FaultRoundStats())
        assert healed_view is None
        assert manager.epoch == 2
        assert not manager.injector.partition_active

    def test_mid_round_spec_returned_as_pending(self):
        ring = build_ring()
        plan = FaultPlan(
            seed=3,
            partitions=(PartitionSpec(at_round=0, mid_round=True),),
        )
        manager = self.make_manager(ring, plan)
        view, pending = manager.begin_round(0, FaultRoundStats())
        assert view is None
        assert pending is not None and pending.mid_round

    def _suspend_one(self, ring, manager):
        """Park the first hosted VS as an in-flight cross-cut transfer."""
        source = next(n for n in ring.alive_nodes if n.virtual_servers)
        target = next(
            n for n in ring.alive_nodes
            if n is not source and n.alive
        )
        vs = source.virtual_servers[0]
        assignment = Assignment(
            candidate=ShedCandidate(
                load=vs.load, vs_id=vs.vs_id, node_index=source.index
            ),
            target_node=target.index,
            level=0,
        )
        skipped = []
        stats = FaultRoundStats()
        assert manager.suspend_assignment(ring, assignment, skipped, stats)
        assert skipped == []
        return vs, source, target

    def test_heal_commits_suspended_transfer_and_conserves(self):
        ring = build_ring()
        manager = self.make_manager(ring)
        stats = FaultRoundStats()
        manager.activate(PartitionSpec(), stats)
        total_before = sum(n.load for n in ring.nodes)
        vs, source, target = self._suspend_one(ring, manager)
        # Detached in flight: the load left the node totals.
        assert manager.in_flight_load == pytest.approx(vs.load)
        assert sum(n.load for n in ring.nodes) == pytest.approx(
            total_before - vs.load
        )
        manager.heal(stats)
        assert stats.healed_commits == 1 and stats.healed_rollbacks == 0
        assert vs.owner is target
        assert sum(n.load for n in ring.nodes) == pytest.approx(total_before)
        assert manager.suspended_count == 0

    def test_heal_rolls_back_when_target_died(self):
        ring = build_ring()
        manager = self.make_manager(ring)
        stats = FaultRoundStats()
        manager.activate(PartitionSpec(), stats)
        total_before = sum(n.load for n in ring.nodes)
        vs, source, target = self._suspend_one(ring, manager)
        target.alive = False
        dead_load = target.load
        manager.heal(stats)
        assert stats.healed_commits == 0 and stats.healed_rollbacks == 1
        assert vs.owner is source
        alive_total = sum(n.load for n in ring.nodes)
        assert alive_total == pytest.approx(total_before)

    def test_corrupted_heal_trips_conservation_gate(self):
        ring = build_ring()
        manager = self.make_manager(ring)
        stats = FaultRoundStats()
        manager.activate(PartitionSpec(), stats)
        self._suspend_one(ring, manager)
        manager.corrupt_heal = True
        with pytest.raises(ConservationError):
            manager.heal(stats)

    def test_partition_and_heal_enter_the_signed_log(self):
        ring = build_ring()
        manager = self.make_manager(ring)
        stats = FaultRoundStats()
        manager.begin_round(1, stats)
        sig_partitioned = manager.injector.signature()
        manager.begin_round(3, stats)
        assert manager.injector.signature() != sig_partitioned


class TestAggregateSanity:
    def admit(self, sanity, load, capacity=1.0, min_vs=0.5, epoch=0, node=0):
        return sanity.admit(node, load, capacity, min_vs, epoch)

    def test_honest_report_admitted_verbatim(self):
        sanity = AggregateSanity(staleness=2)
        sanity.begin_round(0)
        assert self.admit(sanity, 3.0) == (3.0, 1.0, 0.5)

    def test_implausible_reports_quarantined(self):
        stats = FaultRoundStats()
        sanity = AggregateSanity(staleness=2)
        sanity.begin_round(0, stats)
        assert self.admit(sanity, -1.0) is None  # negative load
        assert self.admit(sanity, 1.0, capacity=0.0, node=1) is None
        assert self.admit(sanity, 1.0, min_vs=5.0, node=2) is None
        assert self.admit(sanity, float("nan"), node=3) is None
        assert stats.quarantined_nodes == [0, 1, 2, 3]

    def test_stale_epoch_rejected_with_last_good_fallback(self):
        sanity = AggregateSanity(staleness=1)
        sanity.begin_round(5)
        assert self.admit(sanity, 3.0, epoch=5) == (3.0, 1.0, 0.5)
        sanity.begin_round(6)
        # Within the staleness horizon: epoch 5 still admissible.
        assert self.admit(sanity, 4.0, epoch=5) == (4.0, 1.0, 0.5)
        sanity.begin_round(8)
        # Beyond the horizon: reject, but the node reported good values
        # at epoch 5... which are also too old to reuse by now.
        assert self.admit(sanity, 9.0, epoch=5) is None

    def test_quarantine_falls_back_to_recent_last_good(self):
        sanity = AggregateSanity(staleness=2)
        sanity.begin_round(3)
        assert self.admit(sanity, 3.0, epoch=3) == (3.0, 1.0, 0.5)
        sanity.begin_round(4)
        # Implausible report, but the epoch-3 values are fresh enough.
        assert self.admit(sanity, -99.0, epoch=4) == (3.0, 1.0, 0.5)

    def test_delta_rule_catches_wild_jumps(self):
        sanity = AggregateSanity(staleness=2)
        sanity.begin_round(0)
        assert self.admit(sanity, 3.0) is not None
        jump = 3.0 + 2 * AggregateSanity.DELTA_FACTOR * (1.0 + 3.0)
        assert self.admit(sanity, jump) == (3.0, 1.0, 0.5)
