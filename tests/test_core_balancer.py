"""Integration tests for the orchestrating LoadBalancer."""

import numpy as np
import pytest

from repro.core import BalancerConfig, LoadBalancer, NodeClass
from repro.exceptions import ConfigError
from repro.workloads import GaussianLoadModel, ParetoLoadModel, build_scenario
from tests.conftest import MINI_TS


@pytest.fixture
def scenario():
    return build_scenario(
        GaussianLoadModel(mu=1e5, sigma=300.0), num_nodes=64, vs_per_node=4, rng=13
    )


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = BalancerConfig()
        assert cfg.tree_degree == 2
        assert cfg.rendezvous_threshold == 30
        assert cfg.num_landmarks == 15

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=-0.1),
            dict(tree_degree=1),
            dict(rendezvous_threshold=-1),
            dict(proximity_mode="nope"),
            dict(selection_policy="nope"),
            dict(grid_bits=0),
            dict(num_landmarks=0),
            dict(landmark_strategy="nope"),
            dict(keep_at_least=-1),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            BalancerConfig(**kwargs)

    def test_aware_without_topology_rejected(self, scenario):
        with pytest.raises(ConfigError):
            LoadBalancer(scenario.ring, BalancerConfig(proximity_mode="aware"))


class TestRound:
    def test_load_conserved(self, scenario):
        before = sum(n.load for n in scenario.ring.nodes)
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        report = lb.run_round()
        after = sum(n.load for n in scenario.ring.nodes)
        assert after == pytest.approx(before)
        assert report.loads_after.sum() == pytest.approx(report.loads_before.sum())

    def test_ring_invariants_after_round(self, scenario):
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        lb.run_round()
        scenario.ring.check_invariants()

    def test_heavy_nodes_resolved_with_slack(self, scenario):
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        report = lb.run_round()
        assert report.heavy_before > 0
        assert report.heavy_after <= report.heavy_before // 10

    def test_lights_never_overloaded(self, scenario):
        """Receiving nodes must end at or below their target."""
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        report = lb.run_round()
        before = report.classification_before
        node_by_index = {n.index: n for n in scenario.ring.nodes}
        for idx, cls in before.classes.items():
            if cls is NodeClass.LIGHT:
                assert node_by_index[idx].load <= before.targets[idx] + 1e-6

    def test_transfers_match_load_delta(self, scenario):
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        report = lb.run_round()
        deltas = report.loads_after - report.loads_before
        # Sum of positive deltas equals total moved load.
        assert deltas[deltas > 0].sum() == pytest.approx(report.moved_load)
        assert deltas.sum() == pytest.approx(0.0, abs=1e-6)

    def test_deterministic_given_seeds(self):
        reports = []
        for _ in range(2):
            sc = build_scenario(
                GaussianLoadModel(mu=1e5, sigma=300.0), num_nodes=64, vs_per_node=4, rng=13
            )
            lb = LoadBalancer(
                sc.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=2
            )
            reports.append(lb.run_round())
        assert reports[0].moved_load == pytest.approx(reports[1].moved_load)
        assert len(reports[0].transfers) == len(reports[1].transfers)

    def test_unit_loads_flatten(self, scenario):
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        report = lb.run_round()
        assert report.unit_loads_after.std() < report.unit_loads_before.std() / 5

    def test_summary_text_renders(self, scenario):
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        text = lb.run_round().summary_text()
        assert "heavy:" in text

    def test_to_dict_keys(self, scenario):
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        d = lb.run_round().to_dict()
        assert d["num_nodes"] == 64
        assert "moved_within_10" in d


class TestMultiRound:
    def test_pareto_round_executes(self):
        sc = build_scenario(
            ParetoLoadModel(mu=1e5), num_nodes=64, vs_per_node=4, rng=17
        )
        lb = LoadBalancer(
            sc.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=3
        )
        report = lb.run_round()
        assert report.heavy_after < report.heavy_before
        sc.ring.check_invariants()


class TestAwareMode:
    @pytest.fixture
    def topo_scenario(self):
        return build_scenario(
            GaussianLoadModel(mu=1e5, sigma=300.0),
            num_nodes=32,
            vs_per_node=3,
            topology_params=MINI_TS,
            rng=23,
        )

    def test_aware_round_runs(self, topo_scenario):
        lb = LoadBalancer(
            topo_scenario.ring,
            BalancerConfig(proximity_mode="aware", epsilon=0.05, grid_bits=3),
            topology=topo_scenario.topology,
            oracle=topo_scenario.oracle,
            rng=4,
        )
        report = lb.run_round()
        assert report.heavy_after < report.heavy_before
        assert report.transfer_distances.size == len(report.transfers)

    def test_landmarks_selected(self, topo_scenario):
        lb = LoadBalancer(
            topo_scenario.ring,
            BalancerConfig(proximity_mode="aware", num_landmarks=6),
            topology=topo_scenario.topology,
            oracle=topo_scenario.oracle,
            rng=4,
        )
        assert len(lb.landmarks) == 6

    def test_explicit_landmarks_respected(self, topo_scenario):
        lm = topo_scenario.topology.stub_vertices[:5]
        lb = LoadBalancer(
            topo_scenario.ring,
            BalancerConfig(proximity_mode="aware", num_landmarks=5),
            topology=topo_scenario.topology,
            oracle=topo_scenario.oracle,
            landmarks=lm,
            rng=4,
        )
        assert np.array_equal(lb.landmarks, lm)

    def test_aware_requires_sites(self, topo_scenario):
        topo_scenario.ring.nodes[0].site = None
        with pytest.raises(ConfigError):
            LoadBalancer(
                topo_scenario.ring,
                BalancerConfig(proximity_mode="aware"),
                topology=topo_scenario.topology,
                oracle=topo_scenario.oracle,
                rng=4,
            )

    def test_ignorant_with_topology_reports_distances(self, topo_scenario):
        lb = LoadBalancer(
            topo_scenario.ring,
            BalancerConfig(proximity_mode="ignorant", epsilon=0.05),
            topology=topo_scenario.topology,
            oracle=topo_scenario.oracle,
            rng=4,
        )
        report = lb.run_round()
        assert report.transfer_distances.size == len(report.transfers)


class TestPhaseTiming:
    def test_phase_seconds_recorded(self, scenario):
        lb = LoadBalancer(
            scenario.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        )
        report = lb.run_round()
        assert set(report.phase_seconds) == {"lbi", "classification", "vsa", "vst"}
        assert all(v >= 0 for v in report.phase_seconds.values())
