"""Tests for churn simulation and tree self-repair."""

import numpy as np
import pytest

from repro.dht import ChordRing
from repro.exceptions import SimulationError
from repro.idspace import IdentifierSpace
from repro.ktree import KnaryTree
from repro.sim import ChurnProcess
from repro.sim.runner import measure_phase_rounds, sweep_phase_rounds


@pytest.fixture
def system():
    ring = ChordRing(IdentifierSpace(bits=14))
    ring.populate(12, 3, [1.0] * 12, rng=2)
    for vs in ring.virtual_servers:
        vs.load = 1.0
    tree = KnaryTree(ring, 2)
    tree.build_full()
    return ring, tree


class TestChurnProcess:
    def test_runs_and_repairs(self, system):
        ring, tree = system
        process = ChurnProcess(ring, tree, rng=3)
        trace = process.run(num_events=10)
        assert trace.events == 10
        tree.check_invariants()
        ring.check_invariants()

    def test_repair_rounds_bounded(self, system):
        """Self-repair claim: stabilisation within O(log N) refresh passes."""
        ring, tree = system
        process = ChurnProcess(ring, tree, rng=4)
        trace = process.run(num_events=15)
        assert trace.max_refreshes <= tree.height() + 3

    def test_tree_still_covers_all_vs_after_churn(self, system):
        ring, tree = system
        ChurnProcess(ring, tree, rng=5).run(num_events=12)
        fresh = KnaryTree(ring, 2)
        fresh.build_full()
        index = fresh.index
        size = len(index)
        leaf_slots = np.flatnonzero(index.alive[:size] & index.is_leaf[:size])
        hosting = {index.host[leaf].vs_id for leaf in leaf_slots}
        assert hosting == {vs.vs_id for vs in ring.virtual_servers}

    def test_join_only_churn(self, system):
        ring, tree = system
        n_before = len(ring.alive_nodes)
        process = ChurnProcess(ring, tree, join_rate=1, leave_rate=0, crash_rate=0, rng=6)
        trace = process.run(num_events=5)
        assert len(ring.alive_nodes) == n_before + 5
        assert trace.stats.joins == 5

    def test_crash_only_churn(self, system):
        ring, tree = system
        n_before = len(ring.alive_nodes)
        process = ChurnProcess(ring, tree, join_rate=0, leave_rate=0, crash_rate=1, rng=7)
        process.run(num_events=4)
        assert len(ring.alive_nodes) == n_before - 4

    def test_load_conserved_under_churn(self, system):
        ring, tree = system
        before = sum(vs.load for vs in ring.virtual_servers)
        ChurnProcess(ring, tree, join_rate=0, leave_rate=1, crash_rate=1, rng=8).run(5)
        assert sum(vs.load for vs in ring.virtual_servers) == pytest.approx(before)

    def test_invalid_rates(self, system):
        ring, tree = system
        with pytest.raises(SimulationError):
            ChurnProcess(ring, tree, join_rate=-1)
        with pytest.raises(SimulationError):
            ChurnProcess(ring, tree, join_rate=0, leave_rate=0, crash_rate=0)


class TestPhaseRounds:
    def test_measure_single(self):
        t = measure_phase_rounds(64, tree_degree=2, rng=0)
        assert t.num_nodes == 64
        assert t.num_virtual_servers == 320
        assert t.aggregation_rounds > 0
        assert t.vsa_rounds > 0
        assert 0.5 < t.height_per_log < 5.0

    def test_sweep_shapes(self):
        out = sweep_phase_rounds([32, 64], tree_degrees=[2, 8], rng=0)
        assert len(out) == 4

    def test_rounds_grow_slowly_with_size(self):
        """Doubling N must not double the rounds (logarithmic growth)."""
        small = measure_phase_rounds(64, rng=1)
        large = measure_phase_rounds(256, rng=1)
        assert large.vsa_rounds < 2 * small.vsa_rounds

    def test_k8_fewer_rounds_than_k2(self):
        k2 = measure_phase_rounds(128, tree_degree=2, rng=2)
        k8 = measure_phase_rounds(128, tree_degree=8, rng=2)
        assert k8.vsa_rounds < k2.vsa_rounds
