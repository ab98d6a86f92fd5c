"""Unit tests for :mod:`repro.obs.metrics`."""

from __future__ import annotations

import json
import math

import pytest

from repro.exceptions import ReproError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ReproError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("height")
        g.set(17)
        g.inc(3)
        g.dec(2)
        assert g.value == 18.0


class TestHistogram:
    def test_incremental_stats(self):
        h = Histogram("d")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 16.0
        assert h.mean == 4.0
        assert h.minimum == 1.0
        assert h.maximum == 10.0

    def test_quantiles(self):
        h = Histogram("d")
        for v in range(101):
            h.observe(float(v))
        assert h.quantile(0.5) == 50.0
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 100.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ReproError):
            Histogram("d").quantile(1.5)

    def test_empty_summary_is_finite(self):
        s = Histogram("d").summary()
        assert s["count"] == 0
        assert s["min"] == 0.0 and s["max"] == 0.0
        assert "p50" not in s

    def test_summary_has_quantile_keys(self):
        h = Histogram("d")
        for v in range(10):
            h.observe(float(v))
        s = h.summary()
        assert set(s) >= {"count", "sum", "mean", "min", "max", "p50", "p95"}
        assert s["p50"] == pytest.approx(4.5)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert len(reg) == 2

    def test_name_collision_across_kinds_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ReproError):
            reg.gauge("x")
        with pytest.raises(ReproError):
            reg.histogram("x")

    def test_discarding_undoes_every_update_in_the_block(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        before = reg.snapshot()
        with reg.discarding():
            reg.counter("c").inc(7)
            reg.gauge("g").set(9)
            reg.histogram("h").observe(40.0)
            reg.counter("new").inc()
        assert reg.snapshot() == before
        with pytest.raises(ReproError), reg.discarding():
            reg.counter("c").inc(-1)
        assert reg.snapshot() == before

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("vst.transfers").inc(3)
        reg.gauge("ktree.height").set(12)
        reg.histogram("vst.distance").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"]["vst.transfers"] == 3.0
        assert snap["gauges"]["ktree.height"] == 12.0
        assert snap["histograms"]["vst.distance"]["count"] == 1

    def test_write_json_roundtrips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        out = reg.write_json(tmp_path / "metrics.json")
        data = json.loads(out.read_text())
        assert data["counters"]["c"] == 1.0

    def test_format_text_mentions_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(1.0)
        text = reg.format_text()
        for name in ("c", "g", "h"):
            assert name in text

    def test_snapshot_of_empty_registry(self):
        snap = MetricsRegistry().snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
