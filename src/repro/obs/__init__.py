"""Observability: structured tracing + metrics for the four-phase balancer.

The paper's efficiency argument is a *cost* argument — messages up and
down the K-nary tree, rendezvous pairings, virtual-server moves and the
network distance they cover.  This package makes those costs visible
while a round runs, instead of only in end-of-round aggregates:

* :class:`MetricsRegistry` — named counters, gauges and histograms with
  quantile summaries; one registry per system (or per experiment).
* :class:`Tracer` — typed span/event records (phase, node index, KT
  level, message kind, load moved) written to a pluggable
  :class:`Sink`: in-memory for tests, JSONL for offline analysis,
  console for humans.
* :class:`RoundProfile` — the per-phase breakdown every
  :class:`~repro.core.report.BalanceReport` now carries.

Instrumentation is zero-overhead by default: the module-level
:data:`NULL_TRACER` is disabled, every hot-path call site guards on
``tracer.enabled``, and metrics recording is skipped entirely when no
registry is attached.  Enable it per balancer/system (``tracer=...``,
``metrics=...``) or process-wide via :func:`observe` /
:func:`set_tracer`, which is how the CLI ``--trace``/``--metrics-out``
flags work.  See ``docs/observability.md`` for the operator's guide.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import PhaseProfile, RoundProfile, profile_from_report
from repro.obs.runtime import current_metrics, current_tracer, observe, set_metrics, set_tracer
from repro.obs.sinks import ConsoleSink, InMemorySink, JSONLSink, NullSink, Sink
from repro.obs.trace import NULL_TRACER, Span, TraceRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfile",
    "RoundProfile",
    "profile_from_report",
    "Sink",
    "NullSink",
    "InMemorySink",
    "JSONLSink",
    "ConsoleSink",
    "Tracer",
    "Span",
    "TraceRecord",
    "NULL_TRACER",
    "observe",
    "current_tracer",
    "current_metrics",
    "set_tracer",
    "set_metrics",
]
