"""Named counters, gauges and histograms with quantile summaries.

A :class:`MetricsRegistry` is a flat namespace of instruments, created
on first use (``registry.counter("vst.transfers")``) so call sites never
need registration boilerplate.  Instruments are deliberately simple
Python objects — a counter increment is one attribute add — because they
sit on the balancer's hot paths; anything heavier (locking, label sets,
exposition formats) belongs in an exporter built on
:meth:`MetricsRegistry.snapshot`.

Naming convention used throughout the package: ``<phase>.<what>``
(``lbi.messages_up``, ``vsa.pairings``, ``vst.moved_load``) so a
snapshot sorts into per-phase blocks.
"""

from __future__ import annotations

import copy
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.exceptions import ReproError

#: Quantiles reported by :meth:`Histogram.summary`.
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)


class Counter:
    """A monotonically increasing count (messages, transfers, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        """Create the counter ``name`` starting at zero."""
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative; counters never go down)."""
        if amount < 0:
            raise ReproError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (heavy-node count, tree height, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        """Create the gauge ``name`` starting at zero."""
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= amount


class Histogram:
    """A distribution of observations with on-demand quantile summaries.

    Samples are kept in full (simulation rounds observe at most a few
    thousand values per instrument); ``count``/``total``/``min``/``max``
    are maintained incrementally so the hot-path cost of
    :meth:`observe` is one append plus two comparisons.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "_samples")

    def __init__(self, name: str) -> None:
        """Create the histogram ``name`` with no observations."""
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._samples.append(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of all observations (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        return float(np.quantile(np.asarray(self._samples), q))

    def summary(self) -> dict[str, float]:
        """JSON-friendly digest: count, sum, mean, min/max and quantiles."""
        out = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }
        if self.count:
            samples = np.asarray(self._samples)
            for q in SUMMARY_QUANTILES:
                out[f"p{int(q * 100)}"] = float(np.quantile(samples, q))
        return out


class MetricsRegistry:
    """A flat, create-on-first-use namespace of instruments.

    Examples
    --------
    >>> reg = MetricsRegistry()
    >>> reg.counter("vst.transfers").inc()
    >>> reg.histogram("vst.distance").observe(2.0)
    >>> reg.snapshot()["counters"]["vst.transfers"]
    1.0
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) ---------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first access."""
        c = self._counters.get(name)
        if c is None:
            self._check_free(name)
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first access."""
        g = self._gauges.get(name)
        if g is None:
            self._check_free(name)
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created on first access."""
        h = self._histograms.get(name)
        if h is None:
            self._check_free(name)
            h = self._histograms[name] = Histogram(name)
        return h

    def _check_free(self, name: str) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if name in table:
                raise ReproError(f"metric {name!r} already exists as a {kind}")

    # -- merging ---------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s instruments into this registry in place.

        Designed for the parallel trial engine: each worker process
        accumulates into a fresh registry and the parent merges the
        per-trial registries back **in trial order**, so a merged
        registry matches what a serial run logging directly into one
        registry would hold.  Merge semantics per instrument kind:

        * counters — values add (integer-valued counters merge exactly;
          float-valued counters are equal to a serial run up to float
          summation order);
        * gauges — last write wins (``other``'s value replaces ours),
          matching serial behaviour where the latest trial's ``set``
          sticks;
        * histograms — observation lists concatenate in ``other``'s
          recording order, and count/total/min/max are recomputed
          incrementally.

        A name registered as different instrument kinds in the two
        registries raises :class:`~repro.exceptions.ReproError`.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, hist in other._histograms.items():
            mine = self.histogram(name)
            for value in hist._samples:
                mine.observe(value)

    @contextmanager
    def discarding(self) -> Iterator[None]:
        """Undo every update made inside the block (re-running counted work).

        An instrument fetched before the block is stale after it.
        """
        saved = copy.deepcopy((self._counters, self._gauges, self._histograms))
        try:
            yield
        finally:
            self._counters, self._gauges, self._histograms = saved

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All instrument values as one JSON-friendly nested dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def write_json(self, path: str | Path) -> Path:
        """Write :meth:`snapshot` to ``path`` as indented JSON."""
        out = Path(path)
        out.write_text(json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n")
        return out

    def format_text(self) -> str:
        """Multi-line human-readable dump (operator console / examples)."""
        snap = self.snapshot()
        lines: list[str] = []
        for name, value in snap["counters"].items():
            lines.append(f"{name:<40} {value:.6g}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name:<40} {value:.6g} (gauge)")
        for name, s in snap["histograms"].items():
            lines.append(
                f"{name:<40} n={s['count']} mean={s['mean']:.4g} "
                f"p50={s.get('p50', 0.0):.4g} p95={s.get('p95', 0.0):.4g} "
                f"max={s['max']:.4g}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
