"""Tests for load models, capacity profiles and the scenario builder."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workloads import (
    GaussianLoadModel,
    GnutellaCapacityProfile,
    ParetoLoadModel,
    assign_loads,
    build_scenario,
)
from repro.util.rng import ensure_rng
from tests.conftest import MINI_TS


class TestGaussianModel:
    def test_mean_scales_with_fraction(self):
        model = GaussianLoadModel(mu=1000.0, sigma=0.0)
        loads = model.sample(np.array([0.1, 0.4]), ensure_rng(0))
        assert loads == pytest.approx([100.0, 400.0])

    def test_non_negative(self):
        model = GaussianLoadModel(mu=10.0, sigma=100.0)
        loads = model.sample(np.full(1000, 0.001), ensure_rng(1))
        assert loads.min() >= 0.0

    def test_total_close_to_mu(self):
        model = GaussianLoadModel(mu=1e6, sigma=100.0)
        f = np.full(1000, 1 / 1000)
        loads = model.sample(f, ensure_rng(2))
        assert loads.sum() == pytest.approx(1e6, rel=0.01)

    def test_std_scales_with_sqrt_fraction(self):
        # Large mu keeps the zero-clipping inactive so the std is exact.
        model = GaussianLoadModel(mu=1e6, sigma=10.0)
        f = np.full(20000, 0.25)
        loads = model.sample(f, ensure_rng(3))
        assert loads.std() == pytest.approx(10.0 * 0.5, rel=0.05)

    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0)])
    def test_invalid_params(self, mu, sigma):
        with pytest.raises(WorkloadError):
            GaussianLoadModel(mu=mu, sigma=sigma)

    def test_invalid_fractions(self):
        model = GaussianLoadModel(mu=1.0, sigma=0.0)
        with pytest.raises(WorkloadError):
            model.sample(np.array([1.5]), ensure_rng(0))
        with pytest.raises(WorkloadError):
            model.sample(np.array([]), ensure_rng(0))


class TestParetoModel:
    def test_mean_approximates_mu_f(self):
        model = ParetoLoadModel(mu=1000.0, alpha=2.5)  # finite variance for the test
        f = np.full(200_000, 0.001)
        loads = model.sample(f, ensure_rng(4))
        assert loads.mean() == pytest.approx(1.0, rel=0.05)

    def test_heavy_tail_present(self):
        model = ParetoLoadModel(mu=1000.0)  # alpha=1.5
        f = np.full(50_000, 0.001)
        loads = model.sample(f, ensure_rng(5))
        assert loads.max() > 20 * loads.mean()

    def test_all_positive(self):
        model = ParetoLoadModel(mu=10.0)
        loads = model.sample(np.full(100, 0.01), ensure_rng(6))
        assert loads.min() > 0

    def test_default_shape_is_paper_value(self):
        assert ParetoLoadModel(mu=1.0).alpha == 1.5

    def test_alpha_must_exceed_one(self):
        with pytest.raises(WorkloadError):
            ParetoLoadModel(mu=1.0, alpha=1.0)


class TestAssignLoads:
    def test_installs_on_ring(self, small_ring):
        loads = assign_loads(small_ring, GaussianLoadModel(mu=1e4, sigma=10.0), rng=0)
        ring_loads = np.array([vs.load for vs in small_ring.virtual_servers])
        assert np.allclose(ring_loads, loads)

    def test_deterministic(self, small_ring):
        a = assign_loads(small_ring, GaussianLoadModel(mu=1e4, sigma=10.0), rng=42)
        b = assign_loads(small_ring, GaussianLoadModel(mu=1e4, sigma=10.0), rng=42)
        assert np.array_equal(a, b)


class TestCapacityProfile:
    def test_paper_values(self):
        prof = GnutellaCapacityProfile()
        assert list(prof.values) == [1.0, 10.0, 100.0, 1000.0, 10000.0]
        assert prof.table[10.0] == 0.45

    def test_probabilities_sum_to_one(self):
        assert GnutellaCapacityProfile().probabilities.sum() == pytest.approx(1.0)

    def test_sampling_distribution(self):
        caps = GnutellaCapacityProfile().sample(50_000, rng=7)
        frac_10 = float(np.mean(caps == 10.0))
        assert frac_10 == pytest.approx(0.45, abs=0.02)
        frac_10k = float(np.mean(caps == 10_000.0))
        assert frac_10k == pytest.approx(0.001, abs=0.002)

    def test_invalid_profiles(self):
        with pytest.raises(WorkloadError):
            GnutellaCapacityProfile(table={1.0: 0.5})  # doesn't sum to 1
        with pytest.raises(WorkloadError):
            GnutellaCapacityProfile(table={-1.0: 1.0})
        with pytest.raises(WorkloadError):
            GnutellaCapacityProfile(table={})

    def test_negative_sample_count(self):
        with pytest.raises(WorkloadError):
            GnutellaCapacityProfile().sample(-1)


class TestScenario:
    def test_basic_build(self):
        sc = build_scenario(
            GaussianLoadModel(mu=1e4, sigma=10.0), num_nodes=10, vs_per_node=2, rng=1
        )
        assert sc.num_nodes == 10
        assert sc.ring.num_virtual_servers == 20
        assert sc.topology is None
        assert sc.loads.shape == (20,)

    def test_with_topology(self):
        sc = build_scenario(
            GaussianLoadModel(mu=1e4, sigma=10.0),
            num_nodes=12,
            vs_per_node=2,
            topology_params=MINI_TS,
            rng=2,
        )
        assert sc.topology is not None
        assert sc.oracle is not None
        sites = [n.site for n in sc.ring.nodes]
        assert len(set(sites)) == 12  # distinct stub vertices
        stub_set = set(sc.topology.stub_vertices.tolist())
        assert all(s in stub_set for s in sites)

    def test_deterministic(self):
        a = build_scenario(
            GaussianLoadModel(mu=1e4, sigma=10.0), num_nodes=8, vs_per_node=2, rng=3
        )
        b = build_scenario(
            GaussianLoadModel(mu=1e4, sigma=10.0), num_nodes=8, vs_per_node=2, rng=3
        )
        assert np.array_equal(a.loads, b.loads)
        assert np.array_equal(a.capacities, b.capacities)

    def test_both_topology_args_rejected(self, mini_topology):
        with pytest.raises(WorkloadError):
            build_scenario(
                GaussianLoadModel(mu=1.0, sigma=0.0),
                num_nodes=4,
                topology_params=MINI_TS,
                topology=mini_topology,
                rng=0,
            )

    def test_prebuilt_topology(self, mini_topology):
        sc = build_scenario(
            GaussianLoadModel(mu=1e4, sigma=1.0),
            num_nodes=10,
            vs_per_node=1,
            topology=mini_topology,
            rng=4,
        )
        assert sc.topology is mini_topology

    def test_too_few_stub_vertices(self, mini_topology):
        with pytest.raises(WorkloadError):
            build_scenario(
                GaussianLoadModel(mu=1.0, sigma=0.0),
                num_nodes=10_000,
                topology=mini_topology,
                rng=0,
            )
