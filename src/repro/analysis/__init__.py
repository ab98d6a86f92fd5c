"""Analysis layer: imbalance metrics and per-figure data products."""

from repro.analysis.metrics import (
    capacity_category_breakdown,
    imbalance_metrics,
)
from repro.analysis.figures import (
    Figure4Data,
    Figure56Data,
    Figure78Data,
    figure4_data,
    figure56_data,
    figure78_data,
)
from repro.analysis.replicate import ReplicatedMetric, replicate
from repro.analysis.text_plots import ascii_cdf, ascii_histogram, side_by_side

__all__ = [
    "ReplicatedMetric",
    "replicate",
    "ascii_cdf",
    "ascii_histogram",
    "side_by_side",
    "capacity_category_breakdown",
    "imbalance_metrics",
    "Figure4Data",
    "Figure56Data",
    "Figure78Data",
    "figure4_data",
    "figure56_data",
    "figure78_data",
]
