"""Tests for heartbeat-based failure detection and timed repair."""

import pytest

from repro.dht import ChordRing
from repro.exceptions import SimulationError
from repro.idspace import IdentifierSpace
from repro.ktree import KnaryTree
from repro.sim import HeartbeatMonitor


@pytest.fixture
def system():
    ring = ChordRing(IdentifierSpace(bits=12))
    ring.populate(10, 2, [1.0] * 10, rng=13)
    for vs in ring.virtual_servers:
        vs.load = 1.0
    tree = KnaryTree(ring, 2)
    tree.build_full()
    return ring, tree


class TestConfiguration:
    def test_invalid_interval(self, system):
        ring, tree = system
        with pytest.raises(SimulationError):
            HeartbeatMonitor(ring, tree, heartbeat_interval=0.0)

    def test_invalid_threshold(self, system):
        ring, tree = system
        with pytest.raises(SimulationError):
            HeartbeatMonitor(ring, tree, miss_threshold=0)


class TestQuietOperation:
    def test_heartbeats_flow_without_failures(self, system):
        ring, tree = system
        monitor = HeartbeatMonitor(ring, tree, heartbeat_interval=1.0)
        trace = monitor.run(until=5.0)
        assert trace.heartbeats_sent > 0
        assert trace.failures == []

    def test_heartbeat_count_scales_with_edges_and_rounds(self, system):
        ring, tree = system
        parents, children = tree.edges()
        edges = children.size
        assert edges == tree.node_count - 1 == parents.size
        monitor = HeartbeatMonitor(ring, tree, heartbeat_interval=1.0)
        trace = monitor.run(until=3.0)  # rounds at t=0,1,2,3
        assert trace.heartbeats_sent == 4 * edges


class TestFailureHandling:
    def test_crash_detected_within_bound(self, system):
        ring, tree = system
        monitor = HeartbeatMonitor(
            ring, tree, heartbeat_interval=1.0, miss_threshold=3
        )
        monitor.schedule_crash(0, at_time=2.5)
        trace = monitor.run(until=20.0)
        assert len(trace.failures) == 1
        event = trace.failures[0]
        assert event.crashed_node == 0
        # Worst case: threshold x interval, plus one period.
        assert event.detection_latency <= (
            (monitor.miss_threshold + 1) * monitor.heartbeat_interval
        )
        assert event.detection_latency >= 3.0  # at least threshold x interval

    def test_tree_valid_after_timed_repair(self, system):
        ring, tree = system
        monitor = HeartbeatMonitor(ring, tree, heartbeat_interval=1.0)
        monitor.schedule_crash(3, at_time=1.0)
        monitor.run(until=15.0)
        tree.check_invariants()
        ring.check_invariants()

    def test_repair_passes_bounded_by_height(self, system):
        ring, tree = system
        monitor = HeartbeatMonitor(ring, tree, heartbeat_interval=1.0)
        monitor.schedule_crash(5, at_time=1.0)
        trace = monitor.run(until=15.0)
        assert max(f.refresh_passes for f in trace.failures) <= tree.height() + 2

    def test_multiple_crashes(self, system):
        ring, tree = system
        monitor = HeartbeatMonitor(ring, tree, heartbeat_interval=1.0)
        monitor.schedule_crash(1, at_time=1.0)
        monitor.schedule_crash(7, at_time=6.0)
        trace = monitor.run(until=30.0)
        assert len(trace.failures) == 2
        assert {f.crashed_node for f in trace.failures} == {1, 7}
        tree.check_invariants()

    def test_repair_latency_recorded(self, system):
        ring, tree = system
        monitor = HeartbeatMonitor(ring, tree, heartbeat_interval=0.5)
        monitor.schedule_crash(2, at_time=1.0)
        trace = monitor.run(until=20.0)
        event = trace.failures[0]
        assert event.repair_latency > 0
        assert event.repair_time > event.detect_time > event.crash_time
