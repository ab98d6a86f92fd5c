"""Statistics helpers used by the analysis layer.

These are thin, vectorised wrappers around NumPy that give the experiment
code a stable vocabulary: distribution summaries, Gini coefficients (for
load-imbalance measurement), histograms over explicit bins, and empirical
CDF points (figure 7(b) of the paper is a CDF of moved load by distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    p99: float
    maximum: float


def summary(values: np.ndarray | list[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` for ``values`` (must be non-empty)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("summary() of an empty sample")
    q = np.percentile(arr, [25, 50, 75, 95, 99])
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        p25=float(q[0]),
        median=float(q[1]),
        p75=float(q[2]),
        p95=float(q[3]),
        p99=float(q[4]),
        maximum=float(arr.max()),
    )


def gini_coefficient(values: np.ndarray | list[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, ->1 = skewed).

    Used as a scalar load-imbalance metric alongside the paper's
    scatterplots.  All-zero samples are perfectly equal (0.0).
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("gini_coefficient() of an empty sample")
    if np.any(arr < 0):
        raise ValueError("gini_coefficient() requires non-negative values")
    total = arr.sum()
    if total == 0.0:
        return 0.0
    n = arr.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.sum(ranks * arr) - (n + 1) * total) / (n * total))


def histogram_by_bins(
    values: np.ndarray | list[float],
    weights: np.ndarray | list[float] | None,
    bin_edges: np.ndarray | list[float],
) -> np.ndarray:
    """Weighted histogram over explicit ``bin_edges`` (right edge inclusive last).

    Returns the *fraction* of total weight per bin, which is how the paper
    reports "percentage of total moved load" per hop-distance bucket.
    """
    vals = np.asarray(values, dtype=np.float64)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    counts, _ = np.histogram(vals, bins=np.asarray(bin_edges, dtype=np.float64), weights=w)
    total = counts.sum()
    if total == 0.0:
        return np.zeros_like(counts, dtype=np.float64)
    return counts / total


def cdf_points(
    values: np.ndarray | list[float],
    weights: np.ndarray | list[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical (weighted) CDF of ``values``.

    Returns ``(xs, ps)`` where ``ps[i]`` is the fraction of total weight
    with value ``<= xs[i]``.  ``xs`` is sorted and deduplicated.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return np.empty(0), np.empty(0)
    w = (
        np.ones_like(vals)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    if w.shape != vals.shape:
        raise ValueError("weights must match values in shape")
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    w = w[order]
    cum = np.cumsum(w)
    total = cum[-1]
    if total == 0.0:
        raise ValueError("cdf_points() with zero total weight")
    # Deduplicate: keep the last cumulative value per distinct x.
    keep = np.r_[vals[1:] != vals[:-1], True]
    return vals[keep], cum[keep] / total


def weighted_fraction_within(
    values: np.ndarray | list[float],
    weights: np.ndarray | list[float],
    threshold: float,
) -> float:
    """Fraction of total weight whose value is ``<= threshold``.

    Directly answers claims like "67% of total moved load within 2 hops".
    """
    vals = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total == 0.0:
        return 0.0
    return float(w[vals <= threshold].sum() / total)
