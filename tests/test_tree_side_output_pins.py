"""Exact-value pins on the K-nary tree's side outputs.

:mod:`test_sim_faults_determinism` checks that two identically seeded
runs agree; these pins check *what* they agree on.  The heartbeat
monitor walks the tree's parent/child edges in a fixed order and draws
one fault decision per edge, so a reordered edge walk changes which
heartbeats drop; a refresh that visits, prunes or grows a different
node set changes the ``{replanted, pruned, grown}`` counters.  The
values were recorded from the object-graph tree and must not move when
the tree's representation changes.
"""

import pytest

from repro.dht import ChordRing, crash_node, join_node, leave_node
from repro.faults import FaultPlan
from repro.idspace import IdentifierSpace
from repro.ktree import KnaryTree
from repro.obs import MetricsRegistry
from repro.sim import HeartbeatMonitor
from repro.sim.churn import ChurnProcess

from tests.test_sim_faults_determinism import build_system, churn_digest, heartbeat_digest


def _monitor(faults):
    ring, tree = build_system()
    return HeartbeatMonitor(
        ring, tree, heartbeat_interval=1.0, miss_threshold=3,
        faults=faults, rng=17,
    )


class TestHeartbeatPins:
    def test_crash_without_faults(self):
        monitor = _monitor(None)
        monitor.schedule_crash(0, at_time=2.5)
        assert heartbeat_digest(monitor.run(until=25.0)) == (
            7924, 0, 0, 0, 0, 0, 0, 0, [(0, 3.5, 2.0, 2)],
        )

    def test_crash_under_drops(self):
        monitor = _monitor(FaultPlan(seed=6, drop=0.25))
        monitor.schedule_crash(0, at_time=2.5)
        assert heartbeat_digest(monitor.run(until=25.0)) == (
            6005, 1919, 62, 62, 0, 0, 0, 0, [(0, 3.5, 2.0, 2)],
        )

    def test_partition_under_drops(self):
        monitor = _monitor(FaultPlan(seed=6, drop=0.2))
        half = len(monitor.ring.nodes) // 2
        monitor.schedule_partition(
            [list(range(half)), list(range(half, len(monitor.ring.nodes)))],
            at_time=2.0,
            heal_at=9.0,
        )
        assert heartbeat_digest(monitor.run(until=20.0)) == (
            5208, 1232, 39, 39, 406, 34, 1, 1, [],
        )


def _quiet():
    return {"replanted": 0, "pruned": 0, "grown": 0}


def _counts(replanted, pruned, grown):
    return {"replanted": replanted, "pruned": pruned, "grown": grown}


CHURN_REPAIRS = [
    (26, 20, 0), (19, 20, 0), (18, 20, 0), (13, 26, 0), (21, 22, 0),
    (33, 0, 5), (37, 0, 5), (23, 0, 4), (15, 0, 2), (15, 0, 0),
    (37, 0, 0), (15, 24, 0), (37, 0, 0), (37, 0, 2), (30, 0, 4),
    (29, 0, 3), (9, 28, 0), (4, 18, 0), (29, 0, 0), (25, 0, 1),
]


def test_churn_process_digest():
    ring, tree = build_system(seed=21, nodes=16)
    trace = ChurnProcess(ring, tree, rng=9).run(num_events=20)
    repairs = []
    for counts in CHURN_REPAIRS:
        repairs += [_counts(*counts), _quiet()]
    assert churn_digest(trace) == (20, 0, [2] * 20, repairs)


SCRIPTED = {
    2: ([(27, 0, 3), (14, 26, 0), (27, 28, 0), (33, 22, 1), (0, 0, 0)], 261, 64),
    8: ([(31, 0, 3), (20, 32, 0), (37, 32, 0), (41, 32, 2), (0, 0, 0)], 337, 80),
}


@pytest.mark.parametrize("k", sorted(SCRIPTED))
def test_scripted_refresh_counters(k):
    """Join, leave, crash and a join+crash pair on a fully built tree."""
    ring = ChordRing(IdentifierSpace(bits=12))
    ring.populate(12, 2, [1.0] * 12, rng=5)
    metrics = MetricsRegistry()
    tree = KnaryTree(ring, k, metrics=metrics)
    tree.build_full()
    seen = []
    join_node(ring, capacity=1.0, vs_count=3, rng=31)
    seen.append(tree.refresh())
    leave_node(ring, ring.nodes[2])
    seen.append(tree.refresh())
    crash_node(ring, ring.nodes[5])
    seen.append(tree.refresh())
    join_node(ring, capacity=1.0, vs_count=2, rng=32)
    crash_node(ring, ring.nodes[7])
    seen.append(tree.refresh())
    seen.append(tree.refresh())
    counts, live, rebuilt = SCRIPTED[k]
    assert seen == [_counts(*c) for c in counts]
    assert tree.node_count == live
    tree.check_invariants()
    # Growing flips leaves without materialising children; a full build
    # afterwards materialises exactly the missing ones.
    before = metrics.counter("ktree.materialized").value
    tree.build_full()
    assert metrics.counter("ktree.materialized").value - before == rebuilt
    tree.check_invariants()
