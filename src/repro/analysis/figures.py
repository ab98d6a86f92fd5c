"""Typed data products for each figure of the paper's evaluation.

Each ``figureN_data`` function turns one or two
:class:`~repro.core.report.BalanceReport` objects into exactly the
series the corresponding figure plots, so benchmarks and examples can
print the paper's rows without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import capacity_category_breakdown
from repro.core.report import BalanceReport
from repro.util.stats import cdf_points, histogram_by_bins


@dataclass(frozen=True)
class Figure4Data:
    """Figure 4: scatter of unit load per node, before/after balancing."""

    node_ids: np.ndarray
    unit_before: np.ndarray  # (a)
    unit_after: np.ndarray  # (b)
    target_unit: float  # the system ratio L/C (the horizontal "fair" line)
    heavy_before: int
    heavy_after: int

    @property
    def heavy_fraction_before(self) -> float:
        return self.heavy_before / len(self.node_ids)


def figure4_data(report: BalanceReport) -> Figure4Data:
    return Figure4Data(
        node_ids=report.node_indices,
        unit_before=report.unit_loads_before,
        unit_after=report.unit_loads_after,
        target_unit=report.system_lbi.load_per_capacity,
        heavy_before=report.heavy_before,
        heavy_after=report.heavy_after,
    )


@dataclass(frozen=True)
class Figure56Data:
    """Figures 5/6: load vs. capacity category, before/after.

    ``loads_by_category`` maps capacity value to the per-node loads in
    that category; ``summary`` is the breakdown table.  After balancing,
    mean load must increase monotonically with capacity (the two skews
    aligned) — that is the property tests assert.
    """

    distribution: str  # "gaussian" | "pareto"
    categories: np.ndarray
    loads_before_by_category: dict[float, np.ndarray]
    loads_after_by_category: dict[float, np.ndarray]
    summary: dict[float, dict[str, float]]


def figure56_data(report: BalanceReport, distribution: str) -> Figure56Data:
    caps = report.capacities
    categories = np.unique(caps)
    before: dict[float, np.ndarray] = {}
    after: dict[float, np.ndarray] = {}
    for value in categories:
        mask = caps == value
        before[float(value)] = report.loads_before[mask]
        after[float(value)] = report.loads_after[mask]
    return Figure56Data(
        distribution=distribution,
        categories=categories.astype(np.float64),
        loads_before_by_category=before,
        loads_after_by_category=after,
        summary=capacity_category_breakdown(report),
    )


@dataclass(frozen=True)
class Figure78Data:
    """Figures 7/8: moved-load distribution over transfer distance.

    ``bin_edges`` bound the histogram buckets (latency units);
    ``aware_hist``/``ignorant_hist`` hold the fraction of total moved
    load per bucket; the CDF arrays are weighted empirical CDFs.
    """

    topology_name: str
    bin_edges: np.ndarray
    aware_hist: np.ndarray
    ignorant_hist: np.ndarray
    aware_cdf: tuple[np.ndarray, np.ndarray]
    ignorant_cdf: tuple[np.ndarray, np.ndarray]
    aware_within: dict[int, float]
    ignorant_within: dict[int, float]


DEFAULT_DISTANCE_BINS = np.asarray(
    [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 25, 30, 40, 60], dtype=np.float64
)


def figure78_data(
    aware_report: BalanceReport,
    ignorant_report: BalanceReport,
    topology_name: str,
    bin_edges: np.ndarray | None = None,
    within_marks: tuple[int, ...] = (2, 4, 6, 10, 15, 20),
) -> Figure78Data:
    edges = DEFAULT_DISTANCE_BINS if bin_edges is None else np.asarray(bin_edges)
    return Figure78Data(
        topology_name=topology_name,
        bin_edges=edges,
        aware_hist=histogram_by_bins(
            aware_report.transfer_distances,
            aware_report.transfer_loads_with_distance,
            edges,
        ),
        ignorant_hist=histogram_by_bins(
            ignorant_report.transfer_distances,
            ignorant_report.transfer_loads_with_distance,
            edges,
        ),
        aware_cdf=cdf_points(
            aware_report.transfer_distances,
            aware_report.transfer_loads_with_distance,
        ),
        ignorant_cdf=cdf_points(
            ignorant_report.transfer_distances,
            ignorant_report.transfer_loads_with_distance,
        ),
        aware_within={m: aware_report.moved_load_within(m) for m in within_marks},
        ignorant_within={
            m: ignorant_report.moved_load_within(m) for m in within_marks
        },
    )
