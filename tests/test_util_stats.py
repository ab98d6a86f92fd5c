"""Tests for statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    cdf_points,
    gini_coefficient,
    histogram_by_bins,
    summary,
    weighted_fraction_within,
)


class TestSummary:
    def test_basic(self):
        s = summary([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.median == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summary([])


class TestGini:
    def test_equal_distribution_is_zero(self):
        assert gini_coefficient([5.0] * 10) == pytest.approx(0.0)

    def test_all_zero_is_zero(self):
        assert gini_coefficient([0.0, 0.0]) == 0.0

    def test_single_holder_approaches_one(self):
        g = gini_coefficient([0.0] * 99 + [100.0])
        assert g > 0.95

    def test_known_value(self):
        # For [1, 3]: gini = (2*(1*1+2*3) - 3*4) / (2*4) = 2/8 = 0.25
        assert gini_coefficient([1.0, 3.0]) == pytest.approx(0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient([-1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient([])

    @given(st.lists(st.floats(0.01, 1e4), min_size=2, max_size=50))
    def test_bounds(self, values):
        g = gini_coefficient(values)
        assert -1e-9 <= g < 1.0

    def test_scale_invariant(self):
        vals = [1.0, 2.0, 7.0]
        assert gini_coefficient(vals) == pytest.approx(
            gini_coefficient([10 * v for v in vals])
        )


class TestHistogram:
    def test_fractions_sum_to_one(self):
        h = histogram_by_bins([1, 2, 3, 9], None, [0, 5, 10])
        assert h.sum() == pytest.approx(1.0)
        assert h[0] == pytest.approx(0.75)

    def test_weighted(self):
        h = histogram_by_bins([1, 9], [3.0, 1.0], [0, 5, 10])
        assert h[0] == pytest.approx(0.75)

    def test_empty_weight_returns_zeros(self):
        h = histogram_by_bins([], None, [0, 1, 2])
        assert np.all(h == 0)


class TestCdf:
    def test_monotone_and_normalised(self):
        xs, ps = cdf_points([3, 1, 2, 2])
        assert list(xs) == [1, 2, 3]
        assert ps[-1] == pytest.approx(1.0)
        assert np.all(np.diff(ps) >= 0)

    def test_weighted(self):
        xs, ps = cdf_points([1, 2], [1.0, 3.0])
        assert ps[0] == pytest.approx(0.25)

    def test_empty(self):
        xs, ps = cdf_points([])
        assert xs.size == 0 and ps.size == 0

    def test_mismatched_weights(self):
        with pytest.raises(ValueError):
            cdf_points([1, 2], [1.0])

    def test_zero_weight_raises(self):
        with pytest.raises(ValueError):
            cdf_points([1.0], [0.0])


class TestFractionWithin:
    def test_basic(self):
        assert weighted_fraction_within([1, 5], [1.0, 1.0], 2) == pytest.approx(0.5)

    def test_inclusive(self):
        assert weighted_fraction_within([2.0], [1.0], 2) == 1.0

    def test_zero_total(self):
        assert weighted_fraction_within([1.0], [0.0], 5) == 0.0
