"""Tests for the analysis layer (metrics + figure data products)."""

import numpy as np
import pytest

from repro.analysis import (
    capacity_category_breakdown,
    figure4_data,
    figure56_data,
    figure78_data,
    imbalance_metrics,
)
from repro.core import BalancerConfig, LoadBalancer
from repro.workloads import GaussianLoadModel, build_scenario
from tests.conftest import MINI_TS


@pytest.fixture(scope="module")
def report():
    sc = build_scenario(
        GaussianLoadModel(mu=1e5, sigma=300.0), num_nodes=64, vs_per_node=4, rng=51
    )
    lb = LoadBalancer(
        sc.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=1
    )
    return lb.run_round()


@pytest.fixture(scope="module")
def topo_reports():
    out = {}
    for mode in ("aware", "ignorant"):
        sc = build_scenario(
            GaussianLoadModel(mu=1e5, sigma=300.0),
            num_nodes=32,
            vs_per_node=3,
            topology_params=MINI_TS,
            rng=53,
        )
        lb = LoadBalancer(
            sc.ring,
            BalancerConfig(proximity_mode=mode, epsilon=0.05, grid_bits=3),
            topology=sc.topology,
            oracle=sc.oracle,
            rng=2,
        )
        out[mode] = lb.run_round()
    return out


class TestImbalanceMetrics:
    def test_keys(self, report):
        m = imbalance_metrics(report)
        assert set(m) >= {
            "gini_before",
            "gini_after",
            "heavy_frac_before",
            "heavy_frac_after",
            "moved_load_frac",
        }

    def test_balancing_reduces_gini(self, report):
        m = imbalance_metrics(report)
        assert m["gini_after"] < m["gini_before"]

    def test_fractions_in_unit_interval(self, report):
        m = imbalance_metrics(report)
        assert 0 <= m["heavy_frac_after"] <= m["heavy_frac_before"] <= 1
        assert 0 <= m["moved_load_frac"] <= 1


class TestCategoryBreakdown:
    def test_covers_all_categories(self, report):
        breakdown = capacity_category_breakdown(report)
        assert set(breakdown) == set(np.unique(report.capacities).tolist())

    def test_shares_sum_to_one(self, report):
        breakdown = capacity_category_breakdown(report)
        assert sum(v["share_after"] for v in breakdown.values()) == pytest.approx(1.0)
        assert sum(v["share_before"] for v in breakdown.values()) == pytest.approx(1.0)

    def test_alignment_after_balancing(self, report):
        """Figure 5 claim: mean load after is monotone in capacity."""
        breakdown = capacity_category_breakdown(report)
        caps = sorted(breakdown)
        means = [breakdown[c]["mean_load_after"] for c in caps]
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


class TestFigureData:
    def test_fig4_data(self, report):
        d = figure4_data(report)
        assert d.unit_before.shape == d.unit_after.shape
        assert d.heavy_after <= d.heavy_before
        assert 0 < d.heavy_fraction_before < 1

    def test_fig56_data(self, report):
        d = figure56_data(report, "gaussian")
        assert d.distribution == "gaussian"
        total = sum(len(v) for v in d.loads_before_by_category.values())
        assert total == report.num_nodes
        after_means = [d.summary[c]["mean_load_after"] for c in d.categories]
        assert np.all(np.diff(after_means) >= -1e-9)

    def test_fig78_data(self, topo_reports):
        d = figure78_data(topo_reports["aware"], topo_reports["ignorant"], "mini")
        assert d.aware_hist.sum() == pytest.approx(1.0)
        assert d.ignorant_hist.sum() == pytest.approx(1.0)
        xs, ps = d.aware_cdf
        assert np.all(np.diff(ps) >= 0)
        assert d.aware_within[10] >= d.aware_within[2]
