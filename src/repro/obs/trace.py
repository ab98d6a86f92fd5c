"""Structured tracing: typed span/event records over a pluggable sink.

A :class:`Tracer` produces a flat stream of :class:`TraceRecord`
objects.  Three kinds exist:

* ``span_start`` / ``span_end`` — a named, nested duration (one per
  balancing phase, one ``round`` span around them all).  ``span_end``
  carries ``seconds`` in its fields.
* ``event`` — a point record inside the current span (one virtual-server
  transfer, one rendezvous pairing, one aggregation level, ...).

Records carry a monotonically increasing ``seq`` so a sink's output can
be totally ordered even when timestamps tie, plus the span id and parent
span id so consumers can rebuild the span tree.  All domain payload
(node index, KT level, load, distance, message kind) travels in the
``fields`` dict — the schema per event name is documented in
``docs/observability.md``.

Zero-overhead contract: the module-level :data:`NULL_TRACER` is
permanently disabled; its :meth:`Tracer.span` returns a shared inert
span and :meth:`Tracer.event` returns immediately.  Hot paths guard
bulk work (per-message loops, dict building) behind ``tracer.enabled``.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.sinks import InMemorySink, JSONLSink, NullSink, Sink


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One element of the trace stream (see module docstring for kinds)."""

    kind: str  # "span_start" | "span_end" | "event"
    name: str  # span name or event name, e.g. "vst.transfer"
    span_id: int  # id of the enclosing (or started/ended) span
    parent_id: int | None  # id of the parent span; None at the root
    seq: int  # total order over the stream
    t: float  # seconds since the tracer was created
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict (what the JSONL sink writes per line).

        Non-finite floats (a NaN transfer distance without a topology,
        an infinite ``min_vs_load``) become ``null`` so every line is
        strict JSON — ``jq`` and pandas parse the file unmodified.
        """
        return {
            "kind": self.kind,
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "seq": self.seq,
            "t": round(self.t, 9),
            "fields": {
                k: (None if isinstance(v, float) and not math.isfinite(v) else v)
                for k, v in self.fields.items()
            },
        }


class Span:
    """A live span; use as a context manager or call :meth:`end` directly."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "_t0", "_ended")

    def __init__(
        self, tracer: "Tracer", name: str, span_id: int, parent_id: int | None
    ) -> None:
        """Open the span (constructed by :meth:`Tracer.span`, not directly)."""
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self._t0 = time.perf_counter()
        self._ended = False

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point event attributed to this span."""
        self.tracer._emit("event", name, self.span_id, self.parent_id, fields)

    def end(self, **fields: Any) -> None:
        """Close the span; idempotent.  ``seconds`` is added to fields."""
        if self._ended:
            return
        self._ended = True
        fields["seconds"] = time.perf_counter() - self._t0
        tracer = self.tracer
        tracer._emit("span_end", self.name, self.span_id, self.parent_id, fields)
        tracer._stack.pop()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> None:
        self.end()


class _NullSpan:
    """The inert span handed out by a disabled tracer."""

    __slots__ = ()

    def event(self, name: str, **fields: Any) -> None:
        """No-op."""

    def end(self, **fields: Any) -> None:
        """No-op."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Emits :class:`TraceRecord` objects to a :class:`Sink`.

    Parameters
    ----------
    sink:
        Destination for records.  ``None`` (or a :class:`NullSink`)
        produces a *disabled* tracer: ``enabled`` is False and every
        call is a near-free no-op.

    Examples
    --------
    >>> from repro.obs import InMemorySink, Tracer
    >>> tracer = Tracer(InMemorySink())
    >>> with tracer.span("round") as round_span:
    ...     with tracer.span("lbi") as lbi:
    ...         lbi.event("lbi.level", level=3, messages_up=4)
    >>> [r.kind for r in tracer.sink.records]
    ['span_start', 'span_start', 'event', 'span_end', 'span_end']
    """

    def __init__(self, sink: Sink | None = None) -> None:
        """Create a tracer emitting to ``sink`` (``None`` = disabled)."""
        if sink is None or isinstance(sink, NullSink):
            sink = NullSink()
            self.enabled = False
        else:
            self.enabled = True
        self.sink = sink
        self._seq = 0
        self._next_span_id = 1
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()

    # -- constructors ----------------------------------------------------
    @classmethod
    def to_file(cls, path: str | Path) -> "Tracer":
        """A tracer writing JSONL records to ``path``."""
        return cls(JSONLSink(path))

    @classmethod
    def in_memory(cls) -> "Tracer":
        """A tracer collecting records in memory (tests, examples)."""
        return cls(InMemorySink())

    # -- emission --------------------------------------------------------
    def _emit(
        self,
        kind: str,
        name: str,
        span_id: int,
        parent_id: int | None,
        fields: Mapping[str, Any],
    ) -> None:
        if not self.enabled:
            return
        record = TraceRecord(
            kind=kind,
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            seq=self._seq,
            t=time.perf_counter() - self._epoch,
            fields=fields,
        )
        self._seq += 1
        self.sink.emit(record)

    def span(self, name: str, **fields: Any) -> Span | _NullSpan:
        """Open a child span of the current one (root span otherwise)."""
        if not self.enabled:
            return _NULL_SPAN
        parent_id = self._stack[-1].span_id if self._stack else None
        span_id = self._next_span_id
        self._next_span_id += 1
        span = Span(self, name, span_id, parent_id)
        self._stack.append(span)
        self._emit("span_start", name, span_id, parent_id, fields)
        return span

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point event in the current span (span id 0 at top level)."""
        if not self.enabled:
            return
        if self._stack:
            top = self._stack[-1]
            self._emit("event", name, top.span_id, top.parent_id, fields)
        else:
            self._emit("event", name, 0, None, fields)

    @contextmanager
    def muted(self) -> Iterator[None]:
        """Emit nothing inside the block (re-running work already traced)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def close(self) -> None:
        """Close any dangling spans and flush/close the sink."""
        while self._stack:
            self._stack[-1].end()
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, sink={self.sink!r}, seq={self._seq})"


#: The shared disabled tracer used wherever no tracer was supplied.
NULL_TRACER = Tracer(None)
