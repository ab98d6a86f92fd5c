"""Smoke + shape tests for the experiment drivers (reduced scale).

The ``*_at_quick_scale`` tests hold each registered experiment's paper
shape at ``ExperimentSettings.quick()`` (512 nodes, seed 42) — the
scale ``repro-p2plb run <id>`` defaults to.  Figures 7 and 8 floor the
overlay at 2048 nodes and the variance study at 1024: the ~5000-vertex
transit-stub topology needs a densely populated overlay for distance
distributions to be meaningful.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentSettings, get_experiment, list_experiments
from repro.experiments import (
    chaos,
    convergence,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    partition,
    timing,
    variance,
)
from repro.exceptions import ReproError

SMALL = ExperimentSettings(num_nodes=128, seed=42)
QUICK = ExperimentSettings.quick()


class TestRegistry:
    def test_all_experiments_listed(self):
        names = [n for n, _ in list_experiments()]
        assert names == [
            "byzantine", "chaos", "convergence", "fig4", "fig5", "fig6",
            "fig7", "fig8", "partition", "timing", "variance",
        ]

    def test_get_unknown_raises(self):
        with pytest.raises(ReproError):
            get_experiment("fig99")

    def test_get_returns_callable(self):
        assert callable(get_experiment("fig4"))

    @pytest.mark.parametrize("module", ["chaos", "partition", "byzantine"])
    def test_module_entry_point_runs_warning_free(self, module):
        """``python -m repro.experiments.<id>`` imports no driver early.

        The package loads the registry (which imports every driver)
        only on first access, so runpy finds the driver absent from
        ``sys.modules`` and warns about nothing.  Without ``--smoke``
        the entry point exits 2 straight after import.
        """
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             f"repro.experiments.{module}"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                 "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run(SMALL)

    def test_heavy_fraction_near_paper(self, result):
        """Paper: ~75% of nodes heavy before balancing."""
        assert 0.6 <= result.data.heavy_fraction_before <= 0.9

    def test_all_heavy_resolved(self, result):
        """Paper: all heavy nodes become light after balancing."""
        assert result.data.heavy_after == 0

    def test_format_rows(self, result):
        text = result.format_rows()
        assert "Figure 4" in text and "paper" in text

    def test_paper_shape_at_quick_scale(self):
        """~75% heavy before, none after, at 512 nodes."""
        d = fig4.run(QUICK).data
        assert 0.6 <= d.heavy_fraction_before <= 0.9
        assert d.heavy_after == 0


def mean_loads(data, when):
    """Mean node load per capacity category, ``when`` before/after."""
    return np.asarray([data.summary[c][f"mean_load_{when}"] for c in data.categories])


class TestFig56:
    def test_fig5_alignment(self):
        result = fig5.run(SMALL)
        means = mean_loads(result.data, "after")
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
        assert "capacity" in result.format_rows()

    def test_fig6_pareto_alignment_mostly_holds(self):
        result = fig6.run(SMALL)
        d = result.data
        # Highest-capacity category must end with the largest mean load.
        means = mean_loads(d, "after")
        assert means[-1] == max(means)
        assert result.report.heavy_after <= max(2, result.report.heavy_before // 20)

    def test_fig5_alignment_at_quick_scale(self):
        data = fig5.run(QUICK).data
        means_after = mean_loads(data, "after")
        assert np.all(np.diff(means_after) >= -1e-9), "alignment must be monotone"
        # Before balancing, placement is capacity-blind: the lowest and
        # highest capacity categories carry loads of the same order.
        means_before = mean_loads(data, "before")
        assert means_before[-1] < 10 * means_before[0]
        # After, the top category carries orders of magnitude more.
        assert means_after[-1] > 50 * max(means_after[0], 1e-12)

    def test_fig6_alignment_at_quick_scale(self):
        result = fig6.run(QUICK)
        means = mean_loads(result.data, "after")
        # Rare unmovable tail virtual servers may stay heavy.
        assert means[-1] == max(means)
        assert result.report.heavy_after <= max(2, result.report.heavy_before // 20)


class TestFig78:
    def test_fig7_gaps_at_quick_scale(self):
        """ts5k-large: aware concentrates moved load, ignorant spreads it."""
        result = fig7.run(replace(QUICK, num_nodes=2048))
        d = result.data
        for mark in (2, 4, 6, 10):
            assert d.aware_within[mark] >= d.ignorant_within[mark]
        assert d.aware_within[10] > 0.6
        assert d.ignorant_within[10] < 0.45
        assert d.aware_within[2] > 5 * max(d.ignorant_within[2], 1e-3)
        # Both systems fully balance.
        for report in (result.aware_report, result.ignorant_report):
            assert report.heavy_after <= report.heavy_before // 20

    def test_fig8_gaps_at_quick_scale(self):
        """ts5k-small: aware stays ahead through the body of the curve."""
        result = fig8.run(replace(QUICK, num_nodes=2048))
        d = result.data
        # The two curves meet in the far tail, so mark 2 is not checked.
        for mark in (4, 6, 10):
            assert d.aware_within[mark] >= d.ignorant_within[mark]
        assert d.aware_within[10] > 1.5 * d.ignorant_within[10]
        assert (
            result.aware_report.transfer_distances.mean()
            < result.ignorant_report.transfer_distances.mean()
        )

    def test_variance_gap_at_quick_scale(self):
        """Aware beats ignorant in every replication, far beyond noise."""
        result = variance.run(replace(QUICK, num_nodes=1024), num_seeds=3)
        aware = result.metrics["aware_within_10"]
        ignorant = result.metrics["ignorant_within_10"]
        for a, b in zip(aware.values, ignorant.values):
            assert a > b
        assert aware.mean - ignorant.mean > 2 * (aware.std + ignorant.std)


class TestTiming:
    def test_rounds_logarithmic(self):
        result = timing.run(ExperimentSettings(num_nodes=256), sizes=[64, 256])
        by_k = {}
        for t in result.timings:
            by_k.setdefault(t.tree_degree, []).append(t)
        for k, ts in by_k.items():
            small, large = ts[0], ts[-1]
            # 4x the nodes must not even double the rounds.
            assert large.vsa_rounds < 2 * small.vsa_rounds
        assert "Timing claim" in result.format_rows()

    def test_k8_shallower(self):
        result = timing.run(ExperimentSettings(num_nodes=128), sizes=[128])
        k2 = [t for t in result.timings if t.tree_degree == 2][0]
        k8 = [t for t in result.timings if t.tree_degree == 8][0]
        assert k8.tree_height < k2.tree_height

    def test_logk_bounds_at_quick_scale(self):
        by_k = {}
        for t in timing.run(QUICK).timings:
            by_k.setdefault(t.tree_degree, []).append(t)
        for ts in by_k.values():
            # height / log_K(#VS) stays bounded across the sweep.
            assert max(t.height_per_log for t in ts) < 4.0
            # 8x the nodes stays under 2x the rounds.
            assert ts[-1].vsa_rounds < 2 * ts[0].vsa_rounds
        k2 = {t.num_nodes: t for t in by_k[2]}
        k8 = {t.num_nodes: t for t in by_k[8]}
        for n in k2:
            assert k8[n].tree_height < k2[n].tree_height


class TestConvergence:
    def test_splitting_converges_at_quick_scale(self):
        result = convergence.run(QUICK)
        split_final = result.heavy_per_round_split[-1]
        assert split_final == 0
        if result.heavy_per_round_plain[-1] > 0:
            # A giant stalled the plain protocol; splitting resolved it.
            assert result.splits_performed > 0
            assert result.stranded_per_round_split[-1] == 0.0


class TestChaos:
    @pytest.fixture(scope="class")
    def result(self):
        return chaos.run(SMALL, drop_rates=(0.0, 0.2), crash_mid_round=1)

    def test_every_row_completed(self, result):
        assert [r.drop for r in result.rows] == [0.0, 0.2]
        assert result.baseline_moved > 0

    def test_recovery_machinery_engaged(self, result):
        noisy = result.rows[-1]
        assert noisy.retries > 0
        assert noisy.crashed_nodes == 1
        assert noisy.signature != ""

    def test_degradation_is_graceful(self, result):
        # Faults cost movement but never the whole round.
        assert all(0 < r.movement_ratio <= 1.5 for r in result.rows)

    def test_format_rows(self, result):
        text = result.format_rows()
        assert "Chaos sweep" in text and "baseline" in text

    def test_smoke_mode_asserts_and_reports(self):
        line = chaos.smoke(num_nodes=32, seed=11)
        assert "chaos smoke OK" in line and "reproduced" in line

    def test_graceful_degradation_at_quick_scale(self):
        result = chaos.run(QUICK, drop_rates=(0.0, 0.1, 0.4))
        assert result.baseline_moved > 0
        for row in result.rows:
            # Every degraded round completed, conserved and moved load.
            assert row.movement_ratio > 0
            assert row.signature != ""
        # The retry machinery engages once drops are injected...
        assert result.rows[1].retries > 0
        # ...and heavy drop never costs more than half the moderate
        # case's movement (graceful, not a cliff).
        assert result.rows[2].moved_load >= 0.5 * result.rows[1].moved_load


class TestPartition:
    def test_every_split_heals_at_quick_scale(self):
        result = partition.run(QUICK, component_counts=(2, 4))
        for row in result.rows:
            # Every point activated, degraded and healed back to one ring.
            assert row.partitioned_rounds >= 1
            assert row.final_epoch == 2
            # The heal accounted for every suspended transfer.
            assert row.suspended == row.healed_commits + row.healed_rollbacks
            assert row.regrafts >= row.num_components - 1
            # Degraded rounds still moved load, and the history replays.
            assert row.moved_load > 0
            assert row.signature != ""
