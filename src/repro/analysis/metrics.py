"""Scalar and distributional metrics over balance reports."""

from __future__ import annotations

import numpy as np

from repro.core.report import BalanceReport
from repro.util.stats import gini_coefficient


def imbalance_metrics(report: BalanceReport) -> dict[str, float]:
    """Scalar before/after imbalance summary for one report.

    ``gini_*`` measures inequality of unit load (0 = perfectly aligned
    with capacity); ``max_unit_*`` is the worst node's load/capacity
    relative to the system ratio.
    """
    ratio = report.system_lbi.load_per_capacity
    before = report.unit_loads_before
    after = report.unit_loads_after
    return {
        "gini_before": gini_coefficient(before),
        "gini_after": gini_coefficient(after),
        "max_unit_before": float(before.max() / ratio) if ratio else float("nan"),
        "max_unit_after": float(after.max() / ratio) if ratio else float("nan"),
        "heavy_frac_before": report.heavy_fraction_before,
        "heavy_frac_after": report.heavy_after / report.num_nodes,
        "moved_load_frac": report.moved_load / report.system_lbi.total_load
        if report.system_lbi.total_load
        else 0.0,
    }


def capacity_category_breakdown(
    report: BalanceReport,
) -> dict[float, dict[str, float]]:
    """Per-capacity-category load statistics (figures 5 and 6).

    Returns ``capacity value -> {count, mean_load_before, mean_load_after,
    mean_unit_before, mean_unit_after, share_before, share_after}``.
    After balancing, load share per category should track capacity share
    — "have higher capacity nodes carry more loads".
    """
    caps = report.capacities
    out: dict[float, dict[str, float]] = {}
    total_before = report.loads_before.sum()
    total_after = report.loads_after.sum()
    for value in np.unique(caps):
        mask = caps == value
        lb = report.loads_before[mask]
        la = report.loads_after[mask]
        out[float(value)] = {
            "count": int(mask.sum()),
            "mean_load_before": float(lb.mean()),
            "mean_load_after": float(la.mean()),
            "mean_unit_before": float((lb / value).mean()),
            "mean_unit_after": float((la / value).mean()),
            "share_before": float(lb.sum() / total_before) if total_before else 0.0,
            "share_after": float(la.sum() / total_after) if total_after else 0.0,
        }
    return out

