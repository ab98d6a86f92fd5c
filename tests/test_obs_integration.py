"""Integration: a traced rebalance emits the expected span tree and its
event stream reconciles exactly with the returned BalanceReport."""

from __future__ import annotations

import json
import math

import pytest

from repro.app import P2PSystem, SystemConfig
from repro.core import BalancerConfig, LoadBalancer
from repro.faults import FaultPlan, PartitionSpec
from repro.obs import MetricsRegistry, Tracer, observe
from repro.obs.profile import PHASE_ORDER
from repro.workloads import GaussianLoadModel, build_scenario

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def traced_round():
    """One traced rebalance of a P2PSystem with load skew."""
    tracer = Tracer.in_memory()
    metrics = MetricsRegistry()
    system = P2PSystem(
        SystemConfig(initial_nodes=32, seed=11), tracer=tracer, metrics=metrics
    )
    for i in range(200):
        system.put(f"obj-{i}", load=float(1 + (i % 17) * 40))
    report = system.rebalance()
    return system, tracer, metrics, report


def traced_partitioned_round():
    """One traced round split into two components, with message drops."""
    scenario = build_scenario(
        GaussianLoadModel(mu=1e6, sigma=2e3),
        num_nodes=48, vs_per_node=5, rng=5,
    )
    plan = FaultPlan(
        seed=3,
        drop=0.05,
        partitions=(PartitionSpec(at_round=0, duration=1, num_components=2),),
    )
    tracer = Tracer.in_memory()
    balancer = LoadBalancer(
        scenario.ring,
        BalancerConfig(proximity_mode="ignorant", epsilon=0.05),
        rng=9,
        faults=plan,
        tracer=tracer,
    )
    return tracer, balancer.run_round()


class TestSpanTree:
    def test_round_span_has_the_four_phases_in_order(self, traced_round):
        _, tracer, _, _ = traced_round
        sink = tracer.sink
        starts = [r for r in sink.records if r.kind == "span_start"]
        assert [r.name for r in starts] == [
            "round", "lbi", "classification", "vsa", "vst",
        ]
        root = starts[0]
        assert root.parent_id is None
        for phase in starts[1:]:
            assert phase.parent_id == root.span_id

    def test_every_span_closes_with_a_duration(self, traced_round):
        _, tracer, _, _ = traced_round
        sink = tracer.sink
        started = {r.span_id for r in sink.records if r.kind == "span_start"}
        ended = {r.span_id for r in sink.records if r.kind == "span_end"}
        assert started == ended
        assert all(r.fields["seconds"] >= 0 for r in sink.spans())

    def test_round_span_fields(self, traced_round):
        system, tracer, _, report = traced_round
        (start,) = [r for r in tracer.sink.records if r.name == "round" and r.kind == "span_start"]
        assert start.fields["nodes"] == report.num_nodes
        assert start.fields["mode"] == "ignorant"
        (end,) = tracer.sink.spans("round")
        assert end.fields["transfers"] == len(report.transfers)
        assert end.fields["heavy_after"] == report.heavy_after


class TestReconciliation:
    def test_lbi_messages_match_report(self, traced_round):
        _, tracer, _, report = traced_round
        (agg,) = tracer.sink.events("lbi.aggregate")
        assert agg.fields["messages_up"] == report.aggregation.upward_messages
        assert agg.fields["messages_down"] == report.aggregation.downward_messages
        assert agg.fields["reports"] == report.aggregation.reports
        per_level = sum(
            e.fields["messages_up"] for e in tracer.sink.events("lbi.level")
        )
        assert per_level == report.aggregation.upward_messages

    def test_classification_events_match_report(self, traced_round):
        _, tracer, _, report = traced_round
        events = tracer.sink.events("classification.counts")
        by_stage = {e.fields["stage"]: e for e in events}
        assert by_stage["before"].fields["heavy"] == report.heavy_before
        assert by_stage["after"].fields["heavy"] == report.heavy_after

    def test_vsa_events_match_report(self, traced_round):
        _, tracer, _, report = traced_round
        assert len(tracer.sink.events("vsa.publish")) == report.vsa.entries_published
        (sweep,) = tracer.sink.events("vsa.sweep")
        assert sweep.fields["pairings"] == len(report.vsa.assignments)
        assert sweep.fields["messages_up"] == report.vsa.upward_messages
        paired = sum(
            e.fields["paired"] for e in tracer.sink.events("vsa.rendezvous")
        )
        assert paired == len(report.vsa.assignments)

    def test_vsa_rendezvous_levels_match_report(self, traced_round):
        _, tracer, _, report = traced_round
        by_level: dict[int, int] = {}
        for e in tracer.sink.events("vsa.rendezvous"):
            lvl = e.fields["level"]
            by_level[lvl] = by_level.get(lvl, 0) + e.fields["paired"]
        assert by_level == {
            lvl: n for lvl, n in report.vsa.pairings_by_level.items() if n
        }

    def test_transfer_events_match_report(self, traced_round):
        _, tracer, _, report = traced_round
        events = tracer.sink.events("vst.transfer")
        assert len(events) == len(report.transfers)
        assert sum(e.fields["load"] for e in events) == pytest.approx(
            report.moved_load
        )
        assert {e.fields["vs_id"] for e in events} == {
            t.vs_id for t in report.transfers
        }

    def test_profile_matches_trace(self, traced_round):
        _, tracer, _, report = traced_round
        profile = report.profile
        assert profile is not None
        (agg,) = tracer.sink.events("lbi.aggregate")
        assert profile.phase("lbi").messages == (
            agg.fields["messages_up"] + agg.fields["messages_down"]
        )
        assert profile.phase("vst").messages == len(
            tracer.sink.events("vst.transfer")
        )
        assert profile.phase("vst").detail["moved_load"] == pytest.approx(
            report.moved_load
        )


class TestMetrics:
    def test_registry_accumulated_the_round(self, traced_round):
        _, _, metrics, report = traced_round
        snap = metrics.snapshot()
        assert snap["counters"]["balancer.rounds"] == 1
        assert snap["counters"]["vst.transfers"] == len(report.transfers)
        assert snap["counters"]["vst.moved_load"] == pytest.approx(
            report.moved_load
        )
        assert snap["counters"]["store.puts"] == 200
        assert snap["histograms"]["lbi.seconds"]["count"] == 1

    def test_stats_carries_the_snapshot(self, traced_round):
        system, _, _, report = traced_round
        stats = system.stats()
        assert stats.metrics["counters"]["vst.transfers"] == len(report.transfers)


class TestJSONLTraceReconciles:
    """The acceptance-criterion path: JSONL on disk vs report totals."""

    def test_jsonl_roundtrip_reconciles(self, tmp_path):
        path = tmp_path / "round.jsonl"
        scenario = build_scenario(
            GaussianLoadModel(mu=1e6, sigma=2e3),
            num_nodes=48, vs_per_node=5, rng=5,
        )
        tracer = Tracer.to_file(path)
        balancer = LoadBalancer(
            scenario.ring,
            BalancerConfig(proximity_mode="ignorant", epsilon=0.05),
            rng=9,
            tracer=tracer,
        )
        report = balancer.run_round()
        tracer.close()

        records = [json.loads(line) for line in path.read_text().splitlines()]
        transfers = [r for r in records if r["name"] == "vst.transfer"]
        assert len(transfers) == len(report.transfers)
        assert sum(t["fields"]["load"] for t in transfers) == pytest.approx(
            report.moved_load
        )
        (agg,) = [r for r in records if r["name"] == "lbi.aggregate"]
        assert (
            agg["fields"]["messages_up"] + agg["fields"]["messages_down"]
            == report.aggregation.total_messages
        )
        paired = sum(
            r["fields"]["paired"] for r in records if r["name"] == "vsa.rendezvous"
        )
        assert paired == len(report.vsa.assignments)

    def test_observe_reaches_internally_built_balancers(self):
        with observe() as (tracer, metrics):
            system = P2PSystem(SystemConfig(initial_nodes=8, seed=3))
            system.put("a", load=100.0)
            system.rebalance()
        assert tracer.sink.spans("round")
        assert metrics.snapshot()["counters"]["balancer.rounds"] == 1


class TestZeroOverheadDefault:
    def test_untraced_round_emits_nothing_and_has_profile(self):
        system = P2PSystem(SystemConfig(initial_nodes=8, seed=3))
        report = system.rebalance()
        assert report.profile is not None
        assert math.isclose(
            report.profile.total_seconds, sum(report.phase_seconds.values())
        )
        assert system.tracer.enabled is False
        assert system.tracer._seq == 0

    def test_report_dict_carries_phase_profile(self):
        system = P2PSystem(SystemConfig(initial_nodes=8, seed=3))
        report = system.rebalance()
        d = report.to_dict()
        assert set(d["phases"]) == {"lbi", "classification", "vsa", "vst"}
        assert d["phases"]["vst"]["messages"] == len(report.transfers)


class TestOneClock:
    """Each phase span is the clock its ``phase_seconds`` entry reads."""

    def test_phase_span_seconds_are_phase_seconds(self, traced_round):
        _, tracer, _, report = traced_round
        for phase in PHASE_ORDER:
            (end,) = tracer.sink.spans(phase)
            assert end.fields["seconds"] == report.phase_seconds[phase]

    def test_partitioned_round_sums_its_component_spans(self):
        tracer, report = traced_partitioned_round()
        for phase in PHASE_ORDER:
            ends = tracer.sink.spans(phase)
            assert len(ends) == 2
            assert sum(e.fields["seconds"] for e in ends) == (
                report.phase_seconds[phase]
            )
