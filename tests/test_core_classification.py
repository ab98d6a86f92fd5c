"""Tests for heavy/light/neutral classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AdversaryPlan
from repro.core import (
    BalancerConfig,
    LoadBalancer,
    NodeClass,
    SystemLBI,
    classify_all,
    classify_node,
    target_load,
)
from repro.core.classification import ClassificationResult
from repro.dht import PhysicalNode, VirtualServer
from repro.exceptions import ConfigError
from repro.faults import FaultPlan, PartitionSpec
from repro.obs import MetricsRegistry, Tracer
from repro.recovery import TransferJournal
from repro.workloads import GaussianLoadModel, build_scenario


def node_with_load(index, capacity, load):
    n = PhysicalNode(index, capacity)
    n.virtual_servers = [VirtualServer(index * 100, n, load)]
    return n


LBI = SystemLBI(total_load=100.0, total_capacity=50.0, min_vs_load=1.0)
# load_per_capacity = 2.0


class TestTarget:
    def test_target_proportional_to_capacity(self):
        assert target_load(5.0, LBI) == 10.0
        assert target_load(10.0, LBI) == 20.0

    def test_epsilon_relaxes_target(self):
        assert target_load(5.0, LBI, epsilon=0.1) == pytest.approx(11.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            target_load(5.0, LBI, epsilon=-0.1)


class TestClassifyNode:
    def test_heavy(self):
        n = node_with_load(0, capacity=5.0, load=10.5)  # T=10
        assert classify_node(n, LBI) is NodeClass.HEAVY

    def test_light(self):
        n = node_with_load(0, capacity=5.0, load=8.0)  # T-L = 2 >= L_min=1
        assert classify_node(n, LBI) is NodeClass.LIGHT

    def test_neutral(self):
        n = node_with_load(0, capacity=5.0, load=9.5)  # 0 <= T-L=0.5 < 1
        assert classify_node(n, LBI) is NodeClass.NEUTRAL

    def test_exactly_at_target_not_heavy(self):
        n = node_with_load(0, capacity=5.0, load=10.0)
        assert classify_node(n, LBI) is not NodeClass.HEAVY

    def test_spare_exactly_lmin_is_light(self):
        n = node_with_load(0, capacity=5.0, load=9.0)  # T-L = 1 == L_min
        assert classify_node(n, LBI) is NodeClass.LIGHT

    def test_epsilon_moves_boundary(self):
        n = node_with_load(0, capacity=5.0, load=10.5)
        assert classify_node(n, LBI, epsilon=0.1) is NodeClass.NEUTRAL


class TestClassifyAll:
    def test_matches_scalar_classification(self):
        nodes = [
            node_with_load(0, 5.0, 10.5),
            node_with_load(1, 5.0, 8.0),
            node_with_load(2, 5.0, 9.5),
        ]
        result = classify_all(nodes, LBI)
        for n in nodes:
            assert result.classes[n.index] is classify_node(n, LBI)

    def test_lists_partition_population(self):
        nodes = [node_with_load(i, 5.0, float(i)) for i in range(20)]
        result = classify_all(nodes, LBI)
        assert sorted(result.heavy + result.light + result.neutral) == list(range(20))

    def test_counts(self):
        nodes = [
            node_with_load(0, 5.0, 11.0),
            node_with_load(1, 5.0, 1.0),
        ]
        counts = classify_all(nodes, LBI).counts()
        assert counts == {"heavy": 1, "light": 1, "neutral": 0}

    def test_targets_exposed(self):
        nodes = [node_with_load(0, 5.0, 1.0)]
        result = classify_all(nodes, LBI)
        assert result.targets[0] == pytest.approx(10.0)

    def test_dead_nodes_excluded(self):
        nodes = [node_with_load(0, 5.0, 1.0), node_with_load(1, 5.0, 99.0)]
        nodes[1].alive = False
        result = classify_all(nodes, LBI)
        assert 1 not in result.classes

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            classify_all([node_with_load(0, 1.0, 1.0)], LBI, epsilon=-1)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(0.01, 1e4),
            st.floats(0.0, 1e6),
            st.sampled_from(["drawn", "at-target", "spare-exactly-lmin"]),
        ),
        max_size=40,
    ),
    total_load=st.floats(0.0, 1e7),
    total_capacity=st.floats(1.0, 1e5),
    min_vs=st.floats(0.0, 1e3),
    epsilon=st.floats(0.0, 1.0),
    first_index=st.integers(0, 1000),
)
def test_columns_match_scalar_rules(
    rows, total_load, total_capacity, min_vs, epsilon, first_index
):
    lbi = SystemLBI(
        total_load=total_load, total_capacity=total_capacity, min_vs_load=min_vs
    )
    nodes = []
    # Node indices run backwards from ``first_index``, so row != index.
    for row, (capacity, drawn, kind) in enumerate(rows):
        target = target_load(capacity, lbi, epsilon)
        load = {
            "drawn": drawn,
            "at-target": target,
            "spare-exactly-lmin": max(0.0, target - min_vs),
        }[kind]
        nodes.append(node_with_load(first_index + 3 * (len(rows) - row), capacity, load))
    result = classify_all(nodes, lbi, epsilon)
    row_classes = result.row_classes()
    assert len(row_classes) == len(nodes)
    for row, node in enumerate(nodes):
        expected = classify_node(node, lbi, epsilon)
        target = target_load(node.capacity, lbi, epsilon)
        assert result.indices[row] == node.index
        assert row_classes[row] is expected
        assert result.row_targets[row] == target
        assert result.classes[node.index] is expected
        assert result.targets[node.index] == target
    # Heavy, light and neutral partition the rows.
    heavy, light, neutral = result.heavy_rows, result.light_rows, result.neutral_rows
    assert not (heavy & light).any()
    assert not (heavy & neutral).any() and not (light & neutral).any()
    assert (heavy | light | neutral).all()
    assert sorted(result.heavy + result.light + result.neutral) == sorted(
        n.index for n in nodes
    )
    assert sum(result.counts().values()) == len(nodes)


def test_round_builds_no_per_node_mapping(monkeypatch, tmp_path):
    # A journaled, partitioned, defended, traced and metered round reads
    # classification only as columns, through its ``round_end`` digest.
    def refuse(self):
        raise AssertionError("the round built a per-node classification dict")

    monkeypatch.setattr(ClassificationResult, "classes", property(refuse))
    monkeypatch.setattr(ClassificationResult, "targets", property(refuse))
    ring = build_scenario(
        GaussianLoadModel(mu=1e6, sigma=2e3), num_nodes=96, vs_per_node=4, rng=21
    ).ring
    tracer = Tracer.in_memory()
    balancer = LoadBalancer(
        ring,
        BalancerConfig(proximity_mode="ignorant", epsilon=0.05, tree_degree=2),
        rng=7,
        tracer=tracer,
        metrics=MetricsRegistry(),
        faults=FaultPlan(
            seed=1,
            drop=0.05,
            crash_mid_round=1,
            partitions=(PartitionSpec(at_round=3, duration=1, num_components=2),),
        ),
        adversary=AdversaryPlan(seed=13, fraction=0.15, defense=True),
    )
    journal = TransferJournal(tmp_path / "journal.jsonl")
    balancer.attach_journal(journal)
    reports = [balancer.run_round() for _ in range(4)]
    journal.close()
    # Round 2 runs re-tiled around quarantined nodes, round 3 split in
    # two; both have a node crash mid-batch.
    assert reports[1].adversary_stats.quarantined
    assert reports[2].fault_stats.partition_components == 0
    assert reports[3].fault_stats.partition_components == 2
    assert all(r.fault_stats.crashed_nodes for r in reports[2:])
    journaled = (tmp_path / "journal.jsonl").read_text()
    assert journaled.count('"kind":"round_end"') == 4
    for r in reports:
        assert r.heavy_after == len(r.classification_after.heavy)
        assert r.canonical_digest() in journaled
