"""Tests for dynamic-load simulation."""

import numpy as np
import pytest

from repro.core import BalancerConfig, LoadBalancer
from repro.exceptions import SimulationError
from repro.sim import LoadDynamics, run_dynamic_simulation
from repro.workloads import GaussianLoadModel, build_scenario


@pytest.fixture
def balancer():
    sc = build_scenario(
        GaussianLoadModel(mu=1e5, sigma=300.0), num_nodes=64, vs_per_node=4, rng=95
    )
    return LoadBalancer(
        sc.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=3
    )


class TestLoadDynamics:
    def test_drift_changes_loads(self, balancer):
        ring = balancer.ring
        before = np.array([vs.load for vs in ring.virtual_servers])
        LoadDynamics(drift_sigma=0.3, rng=1).step(ring)
        after = np.array([vs.load for vs in ring.virtual_servers])
        assert not np.allclose(before, after)
        assert np.all(after >= 0)

    def test_zero_drift_is_identity(self, balancer):
        ring = balancer.ring
        before = np.array([vs.load for vs in ring.virtual_servers])
        LoadDynamics(drift_sigma=0.0, rng=1).step(ring)
        after = np.array([vs.load for vs in ring.virtual_servers])
        assert np.allclose(before, after)

    def test_flash_crowd(self, balancer):
        ring = balancer.ring
        total_before = sum(vs.load for vs in ring.virtual_servers)
        LoadDynamics(
            drift_sigma=0.0, flash_crowd_prob=1.0, flash_crowd_factor=10.0, rng=2
        ).step(ring)
        total_after = sum(vs.load for vs in ring.virtual_servers)
        assert total_after > total_before

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(drift_sigma=-0.1),
            dict(flash_crowd_prob=1.5),
            dict(flash_crowd_factor=0.0),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(SimulationError):
            LoadDynamics(**kwargs)


class TestDynamicSimulation:
    def test_trace_shape(self, balancer):
        dynamics = LoadDynamics(drift_sigma=0.2, rng=4)
        trace = run_dynamic_simulation(balancer, dynamics, epochs=3)
        assert len(trace.epochs) == 3
        assert len(trace.reports) == 3
        assert sum(e.moved_load for e in trace.epochs) > 0

    def test_balancer_keeps_up_with_drift(self, balancer):
        """Each epoch's balancing must not make things worse and must keep
        the worst-node overload bounded (heavy count drops; note that the
        gini of unit load is *not* monotone under correct balancing — a
        node legitimately ends near zero unit load after shedding)."""
        dynamics = LoadDynamics(drift_sigma=0.2, rng=5)
        trace = run_dynamic_simulation(balancer, dynamics, epochs=4)
        for epoch, report in zip(trace.epochs, trace.reports):
            assert epoch.heavy_after <= epoch.heavy_before
            assert (
                report.unit_loads_after.max()
                <= report.unit_loads_before.max() + 1e-9
            )

    def test_flash_crowd_recovery(self, balancer):
        dynamics = LoadDynamics(
            drift_sigma=0.0, flash_crowd_prob=1.0, flash_crowd_factor=50.0, rng=6
        )
        trace = run_dynamic_simulation(balancer, dynamics, epochs=3)
        # Hotspots appear (heavy_before > 0) and are mostly resolved.
        assert any(e.heavy_before > 0 for e in trace.epochs)
        assert np.mean([e.heavy_after for e in trace.epochs]) < np.mean(
            [e.heavy_before for e in trace.epochs]
        )

    def test_invalid_epochs(self, balancer):
        with pytest.raises(SimulationError):
            run_dynamic_simulation(balancer, LoadDynamics(rng=0), epochs=0)


class TestConvergenceExperiment:
    def test_splitting_resolves_pareto_giant(self):
        from repro.experiments import convergence
        from repro.experiments.common import ExperimentSettings

        result = convergence.run(
            ExperimentSettings(num_nodes=128, seed=42), rounds=4
        )
        # Plain variant stays stuck; splitting converges to zero heavy.
        assert result.heavy_per_round_plain[-1] > 0
        assert result.heavy_per_round_split[-1] == 0
        assert result.splits_performed > 0
        assert "Convergence" in result.format_rows()
