"""Tests for the timed protocol simulation (VSA/VST overlap)."""

import pytest

from repro.core import BalancerConfig, LoadBalancer
from repro.exceptions import SimulationError
from repro.sim import simulate_timed_round
from repro.workloads import GaussianLoadModel, build_scenario
from tests.conftest import MINI_TS


def make_balancer(mode="ignorant", with_topology=False, rng=33):
    kwargs = {}
    if with_topology:
        sc = build_scenario(
            GaussianLoadModel(mu=1e5, sigma=300.0),
            num_nodes=36,
            vs_per_node=3,
            topology_params=MINI_TS,
            rng=rng,
        )
        kwargs = dict(topology=sc.topology, oracle=sc.oracle)
    else:
        sc = build_scenario(
            GaussianLoadModel(mu=1e5, sigma=300.0), num_nodes=64, vs_per_node=4, rng=rng
        )
    return LoadBalancer(
        sc.ring,
        BalancerConfig(proximity_mode=mode, epsilon=0.05, grid_bits=3),
        rng=3,
        **kwargs,
    )


class TestTimedRound:
    def test_same_outcome_as_plain_round(self):
        report, timing = simulate_timed_round(make_balancer())
        assert timing.transfers == len(report.transfers)
        assert report.heavy_after <= report.heavy_before

    def test_vsa_completion_is_height_times_latency(self):
        report, timing = simulate_timed_round(make_balancer(), level_latency=2.0)
        assert timing.vsa_completion_time == pytest.approx(2.0 * report.tree_height)

    def test_overlap_never_slower(self):
        _, timing = simulate_timed_round(make_balancer())
        assert timing.last_transfer_overlapped <= timing.last_transfer_sequential
        assert timing.overlap_speedup >= 1.0

    def test_overlap_strictly_faster_with_deep_pairings(self):
        """With proximity-aware placement, pairings happen deep in the tree
        (early in the sweep), so overlapping buys real time."""
        _, timing = simulate_timed_round(
            make_balancer(mode="aware", with_topology=True),
            transfer_cost_per_load=0.01,
        )
        if timing.transfers:
            assert timing.overlap_speedup > 1.0

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            simulate_timed_round(make_balancer(), level_latency=0.0)
        with pytest.raises(SimulationError):
            simulate_timed_round(make_balancer(), transfer_cost_per_load=-1.0)

    def test_zero_transfer_cost_collapses_to_pairing_times(self):
        report, timing = simulate_timed_round(
            make_balancer(), transfer_cost_per_load=0.0
        )
        if report.transfers:
            deepest = max(t.level for t in report.transfers)
            expected = report.tree_height - min(
                t.level for t in report.transfers
            )
            assert timing.last_transfer_overlapped == pytest.approx(expected)


class TestPlacementInjection:
    def test_custom_placement_used(self):
        """A constant-key placement sends every entry to one leaf."""

        class ConstantPlacement:
            def keys_for(self, nodes):
                return [12345] * len(nodes)

        sc = build_scenario(
            GaussianLoadModel(mu=1e5, sigma=300.0), num_nodes=64, vs_per_node=4, rng=35
        )
        lb = LoadBalancer(
            sc.ring,
            BalancerConfig(proximity_mode="ignorant", epsilon=0.05),
            placement=ConstantPlacement(),
            rng=3,
        )
        report = lb.run_round()
        # everything met at one leaf: all pairings share a single level
        levels = {t.level for t in report.transfers}
        assert len(levels) == 1
        assert report.heavy_after <= report.heavy_before // 4
