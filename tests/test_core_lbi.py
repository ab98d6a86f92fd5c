"""Tests for LBI aggregation over the tree, and for the columnar
admission and delivery decisions against their message-at-a-time
reference."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AdversaryEngine, AdversaryPlan, AdversaryRoundStats
from repro.adversary.trust import TrustedAggregation
from repro.core import BalancerConfig, LoadBalancer
from repro.core.lbi import (
    AggregateSanity,
    admit_lbi_reports,
    aggregate_lbi,
    collect_lbi_reports,
    direct_system_lbi,
)
from repro.core.reference import (
    admit_lbi_reports_serially,
    deliver_publications_serially,
)
from repro.core.soa import NodeStateArrays
from repro.core.vsa import VSAEntries, VSAResult, deliver_publications
from repro.dht import ChordRing
from repro.exceptions import BalancerError
from repro.faults import FaultInjector, FaultPlan, FaultRoundStats, RetryPolicy
from repro.idspace import IdentifierSpace
from repro.ktree import KnaryTree
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer
from repro.workloads import GaussianLoadModel, build_scenario


@pytest.fixture
def ring():
    r = ChordRing(IdentifierSpace(bits=12))
    r.populate(10, 3, [float(i + 1) for i in range(10)], rng=2)
    for i, vs in enumerate(r.virtual_servers):
        vs.load = float(i + 1)
    return r


class TestCollect:
    def test_one_report_per_node(self, ring):
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=0)
        total = sum(len(records) for records in reports.values())
        assert total == len(ring.nodes)

    def test_reports_via_hosted_leaf(self, ring):
        """A node's report must enter at a leaf hosted by one of its VSs."""
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=1)
        index = tree.index
        for leaf, records in reports.items():
            assert index.alive[leaf] and index.is_leaf[leaf]
            assert index.host[leaf].owner.alive
            for rec in records:
                # the record matches some node hosted by... at minimum the
                # leaf's host VS owner reports plausible values
                assert rec.capacity > 0

    def test_zero_vs_node_still_reports(self, ring):
        node = ring.nodes[0]
        for vs in list(node.virtual_servers):
            vs_load = vs.load
            ring.remove_virtual_server(vs)
            ring.successor(vs.vs_id).load += vs_load
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=2)
        total = sum(len(records) for records in reports.values())
        assert total == len(ring.nodes)  # including the empty one


class TestAggregate:
    def test_matches_ground_truth(self, ring):
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=0)
        system, trace = aggregate_lbi(tree, reports)
        truth = direct_system_lbi(ring.nodes)
        assert system.total_load == pytest.approx(truth.total_load)
        assert system.total_capacity == pytest.approx(truth.total_capacity)
        assert system.min_vs_load == pytest.approx(truth.min_vs_load)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_aggregate_independent_of_degree(self, ring, k):
        tree = KnaryTree(ring, k)
        reports = collect_lbi_reports(ring, tree, rng=0)
        system, _ = aggregate_lbi(tree, reports)
        truth = direct_system_lbi(ring.nodes)
        assert system.total_load == pytest.approx(truth.total_load)

    def test_rounds_bounded_by_height(self, ring):
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=0)
        _, trace = aggregate_lbi(tree, reports)
        assert trace.upward_rounds == trace.tree_height
        assert trace.downward_rounds == trace.tree_height
        assert trace.total_rounds == 2 * trace.tree_height

    def test_rounds_scale_logarithmically(self):
        r = ChordRing(IdentifierSpace(bits=20))
        r.populate(64, 2, [1.0] * 64, rng=3)
        for vs in r.virtual_servers:
            vs.load = 1.0
        tree = KnaryTree(r, 2)
        reports = collect_lbi_reports(r, tree, rng=0)
        _, trace = aggregate_lbi(tree, reports)
        assert trace.upward_rounds <= 4 * math.log2(r.num_virtual_servers)

    def test_message_symmetry(self, ring):
        tree = KnaryTree(ring, 2)
        reports = collect_lbi_reports(ring, tree, rng=0)
        _, trace = aggregate_lbi(tree, reports)
        assert trace.upward_messages == trace.downward_messages
        assert trace.upward_messages > 0

    def test_empty_reports_rejected(self, ring):
        tree = KnaryTree(ring, 2)
        with pytest.raises(BalancerError):
            aggregate_lbi(tree, {})

    def test_direct_lbi_counts_empty_nodes_capacity(self, ring):
        node = ring.nodes[5]
        for vs in list(node.virtual_servers):
            load = vs.load
            ring.remove_virtual_server(vs)
            ring.successor(vs.vs_id).load += load
        truth = direct_system_lbi(ring.nodes)
        assert truth.total_capacity == pytest.approx(
            sum(n.capacity for n in ring.nodes)
        )

    def test_direct_lbi_requires_some_vs(self):
        r = ChordRing(IdentifierSpace(bits=8))
        with pytest.raises(BalancerError):
            direct_system_lbi(r.nodes)


# ----------------------------------------------------------------------
# Columnar admission and delivery against the message-at-a-time reference
# ----------------------------------------------------------------------
_GAUSS = GaussianLoadModel(mu=1e5, sigma=3e4)


def _gated_ring():
    """A 40-node ring in which node 0 has shed every virtual server."""
    ring = build_scenario(_GAUSS, num_nodes=40, vs_per_node=3, rng=19).ring
    first, second = ring.alive_nodes[:2]
    for vs in list(first.virtual_servers):
        ring.transfer_virtual_server(vs, second)
    return ring


_RING = _gated_ring()


class _Side:
    """One side of the comparison: its own streams, logs and gate."""

    def __init__(
        self, plan: FaultPlan, policy: RetryPolicy, adversary: AdversaryPlan
    ) -> None:
        self.sink = InMemorySink()
        tracer = Tracer(self.sink)
        self.faults = FaultInjector(plan, tracer=tracer)
        self.adversary = AdversaryEngine(adversary, tracer=tracer)
        self.sanity: AggregateSanity = (
            TrustedAggregation(
                policy.lbi_staleness_rounds, rng=self.adversary.audit_rng,
                tracer=tracer,
            )
            if adversary.defense
            else AggregateSanity(policy.lbi_staleness_rounds, tracer=tracer)
        )
        self.lbi_rng = np.random.default_rng(plan.seed + 1)
        self.retry_rng = np.random.default_rng(plan.seed + 2)

    def begin_round(self, round_index: int, alive: list[int]):
        fault_stats, adv_stats = FaultRoundStats(), AdversaryRoundStats()
        self.faults.reset_round(round_index)
        self.adversary.begin_round(round_index, alive)
        if isinstance(self.sanity, TrustedAggregation):
            self.sanity.begin_round(
                0, fault_stats, alive_indices=alive, adversary_stats=adv_stats
            )
        else:
            self.sanity.begin_round(0, fault_stats, alive_indices=alive)
        return fault_stats, adv_stats

    def state(self) -> tuple:
        gate = {
            name: getattr(self.sanity, name, None)
            for name in (
                "_last_good", "_trust", "_ewma", "_probation", "_quarantined",
                "_penalized",
            )
        }
        streams = [
            gen.bit_generator.state
            for gen in (
                self.lbi_rng, self.retry_rng, self.adversary.audit_rng,
                self.faults._drop_rng, self.faults._delay_rng,
                self.faults._dup_rng, self.faults._corrupt_rng,
            )
        ]
        events = [
            repr((r.kind, r.name, dict(r.fields))) for r in self.sink.records
        ]
        return (
            self.faults.log, self.adversary.log, gate, streams, events,
        )


def _snapshot(nodes, scale: np.ndarray) -> NodeStateArrays:
    """The nodes' snapshot with loads scaled per row (a round of drift)."""
    honest = NodeStateArrays.snapshot(nodes)
    return NodeStateArrays(
        indices=honest.indices,
        capacities=honest.capacities,
        loads=honest.loads * scale,
        min_vs=honest.min_vs * scale,
        vs_counts=honest.vs_counts,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    drop=st.sampled_from([0.0, 0.05, 0.3, 0.7]),
    delay=st.sampled_from([0.0, 0.1, 0.5]),
    duplicate=st.sampled_from([0.0, 0.2]),
    corrupt=st.sampled_from([0.0, 0.1, 0.4]),
    max_attempts=st.integers(1, 4),
    budget=st.sampled_from([0.0, 0.3, 2.0, 8.0]),
    fraction=st.sampled_from([0.0, 0.15, 0.4]),
    defense=st.booleans(),
    publications=st.integers(0, 80),
)
def test_columnar_decisions_match_serial_reference(
    seed, drop, delay, duplicate, corrupt, max_attempts, budget, fraction,
    defense, publications,
):
    plan = FaultPlan(
        seed=seed, drop=drop, delay=delay, duplicate=duplicate, corrupt=corrupt
    )
    policy = RetryPolicy(max_attempts=max_attempts, phase_budget=budget)
    adversary = AdversaryPlan(seed=seed + 3, fraction=fraction, defense=defense)
    columnar, serial = _Side(plan, policy, adversary), _Side(plan, policy, adversary)
    nodes = _RING.alive_nodes
    alive = [n.index for n in nodes]
    drift = np.random.default_rng(seed)
    for round_index in range(3):
        state = _snapshot(nodes, drift.uniform(0.2, 5.0, len(nodes)))
        outcomes = []
        for side, admit in (
            (columnar, admit_lbi_reports),
            (serial, admit_lbi_reports_serially),
        ):
            fault_stats, adv_stats = side.begin_round(round_index, alive)
            rows = admit(
                _RING, nodes, state, side.lbi_rng, faults=side.faults,
                retry=policy, fault_stats=fault_stats, sanity=side.sanity,
                adversary=side.adversary, adversary_stats=adv_stats,
            )
            entries = VSAEntries(
                keys=np.arange(publications, dtype=np.int64) * 7919,
                heavy=np.arange(publications) % 2 == 0,
                values=np.linspace(1.0, 2.0, publications),
                nodes=np.asarray(alive * 2, dtype=np.int64)[:publications],
                vs_ids=np.full(publications, -1, dtype=np.int64),
            )
            result = VSAResult(entries_published=publications)
            deliver = (
                deliver_publications
                if side is columnar
                else deliver_publications_serially
            )
            delivered = deliver(
                entries, result, side.retry_rng, faults=side.faults,
                retry=policy, fault_stats=fault_stats,
            )
            outcomes.append(
                (
                    rows.keys.tolist(), rows.loads.tolist(),
                    rows.capacities.tolist(), rows.min_vs.tolist(),
                    rows.vsless, rows.lost, delivered.tolist(),
                    result.entries_lost, fault_stats, adv_stats,
                )
            )
        assert outcomes[0] == outcomes[1]
        assert columnar.state() == serial.state()


def test_engine_round_takes_no_per_message_call(monkeypatch):
    # A faulted, defended LoadBalancer round makes every decision in
    # columns: the scalar per-message entry points are never called.
    def refuse(*args, **kwargs):
        raise AssertionError("a per-message call ran on the engine path")

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and hasattr(module, "deliver_with_retry"):
            monkeypatch.setattr(module, "deliver_with_retry", refuse)
    for owner, names in (
        (FaultInjector, ("drop", "delay", "duplicate", "corrupt_report")),
        (AggregateSanity, ("admit", "witness_check")),
        (TrustedAggregation, ("admit", "witness_check")),
        (AdversaryEngine, ("lie", "accuser_of")),
    ):
        for attr in names:
            monkeypatch.setattr(owner, attr, refuse)
    ring = build_scenario(_GAUSS, num_nodes=64, vs_per_node=3, rng=23).ring
    balancer = LoadBalancer(
        ring,
        BalancerConfig(proximity_mode="ignorant", epsilon=0.05, tree_degree=2),
        rng=3,
        faults=FaultPlan(
            seed=2, drop=0.2, delay=0.1, duplicate=0.1, corrupt=0.1
        ),
        adversary=AdversaryPlan(seed=4, fraction=0.2, defense=True),
    )
    report = balancer.run_round()
    assert balancer.faults is not None
    fired = {f.kind.value for f in balancer.faults.log}
    assert {"drop", "delay", "duplicate", "corrupt"} <= fired
    assert report.adversary_stats.audits_run
    assert report.adversary_stats.lies_total
    assert report.fault_stats.vsa_retries or report.fault_stats.vsa_entries_lost
