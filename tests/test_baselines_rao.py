"""Tests for the Rao et al. baseline schemes."""

import pytest

from repro.baselines import run_many_to_many, run_one_to_many, run_one_to_one
from repro.core.classification import classify_all
from repro.core.lbi import direct_system_lbi
from repro.core.records import NodeClass
from repro.workloads import GaussianLoadModel, build_scenario
from tests.conftest import MINI_TS


@pytest.fixture
def scenario():
    return build_scenario(
        GaussianLoadModel(mu=1e5, sigma=200.0), num_nodes=48, vs_per_node=4, rng=31
    )


class TestOneToOne:
    def test_reduces_heavy_count(self, scenario):
        result = run_one_to_one(scenario.ring, epsilon=0.05, rng=0)
        assert result.scheme == "one-to-one"
        assert result.heavy_after <= result.heavy_before
        assert result.transfers > 0

    def test_load_conserved(self, scenario):
        before = sum(n.load for n in scenario.ring.nodes)
        run_one_to_one(scenario.ring, epsilon=0.05, rng=0)
        assert sum(n.load for n in scenario.ring.nodes) == pytest.approx(before)

    def test_probes_counted(self, scenario):
        result = run_one_to_one(scenario.ring, epsilon=0.05, probes_per_light=2, rng=1)
        assert result.probes > 0

    def test_no_light_overloaded(self, scenario):
        lbi = direct_system_lbi(scenario.ring.nodes)
        cls = classify_all(scenario.ring.alive_nodes, lbi, 0.05)
        run_one_to_one(scenario.ring, epsilon=0.05, rng=2)
        node_by_index = {n.index: n for n in scenario.ring.nodes}
        for idx, c in cls.classes.items():
            if c is NodeClass.LIGHT:
                assert node_by_index[idx].load <= cls.targets[idx] + 1e-6

    def test_ring_invariants(self, scenario):
        run_one_to_one(scenario.ring, epsilon=0.05, rng=3)
        scenario.ring.check_invariants()


class TestOneToMany:
    def test_reduces_heavy_count(self, scenario):
        result = run_one_to_many(scenario.ring, epsilon=0.05, rng=0)
        assert result.heavy_after < result.heavy_before

    def test_load_conserved(self, scenario):
        before = sum(n.load for n in scenario.ring.nodes)
        run_one_to_many(scenario.ring, epsilon=0.05, rng=0)
        assert sum(n.load for n in scenario.ring.nodes) == pytest.approx(before)

    def test_directory_count_validated(self, scenario):
        from repro.exceptions import BalancerError

        with pytest.raises(BalancerError):
            run_one_to_many(scenario.ring, num_directories=0)

    def test_more_directories_less_effective_matching(self, scenario):
        """Splitting lights across many directories weakens matching."""
        few = run_one_to_many(scenario.ring, epsilon=0.05, num_directories=1, rng=5)
        assert few.heavy_after <= few.heavy_before


class TestManyToMany:
    def test_strongest_scheme_clears_heavies(self, scenario):
        result = run_many_to_many(scenario.ring, epsilon=0.05)
        assert result.heavy_after <= result.heavy_before // 5

    def test_load_conserved(self, scenario):
        before = sum(n.load for n in scenario.ring.nodes)
        run_many_to_many(scenario.ring, epsilon=0.05)
        assert sum(n.load for n in scenario.ring.nodes) == pytest.approx(before)

    def test_with_topology_records_distances(self):
        sc = build_scenario(
            GaussianLoadModel(mu=1e5, sigma=200.0),
            num_nodes=24,
            vs_per_node=3,
            topology_params=MINI_TS,
            rng=37,
        )
        result = run_many_to_many(sc.ring, epsilon=0.05, oracle=sc.oracle)
        assert len(result.distances) == result.transfers

    def test_comparable_balance_to_tree_scheme(self):
        """Many-to-many should balance about as well as the paper's VSA
        (it is the same assignment policy executed at a single point)."""
        from repro.core import BalancerConfig, LoadBalancer

        sc1 = build_scenario(
            GaussianLoadModel(mu=1e5, sigma=200.0), num_nodes=48, vs_per_node=4, rng=31
        )
        sc2 = build_scenario(
            GaussianLoadModel(mu=1e5, sigma=200.0), num_nodes=48, vs_per_node=4, rng=31
        )
        mm = run_many_to_many(sc1.ring, epsilon=0.05)
        tree = LoadBalancer(
            sc2.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
        ).run_round()
        assert abs(mm.heavy_after - tree.heavy_after) <= max(
            3, tree.heavy_before // 10
        )
