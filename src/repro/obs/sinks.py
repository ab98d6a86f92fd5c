"""Trace sinks: where :class:`~repro.obs.trace.TraceRecord` streams go.

Four implementations cover the intended uses:

* :class:`NullSink` — swallows everything; the zero-overhead default.
* :class:`InMemorySink` — a list of records; unit/integration tests and
  interactive inspection.
* :class:`JSONLSink` — one JSON object per line; offline analysis
  (``jq``, pandas) and the CLI ``--trace`` flag.
* :class:`ConsoleSink` — indented human-readable lines on a stream;
  watching a round live.

A sink only needs ``emit(record)`` and ``close()``; anything matching
the :class:`Sink` protocol (e.g. a socket forwarder) plugs into
:class:`~repro.obs.trace.Tracer` unchanged.
"""

from __future__ import annotations

import io
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, TextIO, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace imports sinks)
    from repro.obs.trace import TraceRecord


@runtime_checkable
class Sink(Protocol):
    """Anything that can receive a stream of trace records."""

    def emit(self, record: "TraceRecord") -> None:
        """Receive one record (called in stream order)."""

    def close(self) -> None:
        """Flush and release resources; no ``emit`` may follow."""


class NullSink:
    """Discards every record — the zero-overhead default."""

    __slots__ = ()

    def emit(self, record: "TraceRecord") -> None:
        """Discard ``record``."""

    def close(self) -> None:
        """No-op."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullSink()"


class InMemorySink:
    """Collects records in a list (``sink.records``)."""

    def __init__(self) -> None:
        self.records: list["TraceRecord"] = []
        self.closed = False

    def emit(self, record: "TraceRecord") -> None:
        """Append ``record`` to :attr:`records`."""
        self.records.append(record)

    def close(self) -> None:
        """Mark the sink closed (records stay readable)."""
        self.closed = True

    def events(self, name: str | None = None) -> list["TraceRecord"]:
        """All ``event`` records, optionally filtered by name."""
        return [
            r
            for r in self.records
            if r.kind == "event" and (name is None or r.name == name)
        ]

    def spans(self, name: str | None = None) -> list["TraceRecord"]:
        """All ``span_end`` records (the completed spans with durations)."""
        return [
            r
            for r in self.records
            if r.kind == "span_end" and (name is None or r.name == name)
        ]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InMemorySink({len(self.records)} records)"


class JSONLSink:
    """Writes one JSON object per record to a file (JSON Lines).

    The file is opened eagerly so a bad path fails at construction, not
    mid-round.  Lines are buffered by the underlying file object;
    ``close()`` flushes.

    ``append`` reopens an existing stream instead of truncating it, and
    ``sync`` makes each line durable (flush + ``os.fsync``) before
    ``emit`` returns — the write-ahead discipline
    :mod:`repro.recovery.journal` relies on for files sharing this JSON
    Lines shape.  Both default off: plain tracing keeps the cheap
    buffered behavior.
    """

    def __init__(
        self,
        path: str | Path,
        append: bool = False,
        sync: bool = False,
    ) -> None:
        """Open ``path`` for writing (fails fast on bad paths)."""
        self.path = Path(path)
        self._fh: io.TextIOWrapper | None = self.path.open(
            "a" if append else "w"
        )
        self.sync = sync
        self.lines_written = 0

    def emit(self, record: "TraceRecord") -> None:
        """Write ``record`` as one JSON line (durably when ``sync``)."""
        if self._fh is None:
            raise ValueError(f"JSONLSink({self.path}) is closed")
        self._fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        if self.sync:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self.lines_written += 1

    def close(self) -> None:
        """Flush and close the file; further emits raise."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JSONLSink({str(self.path)!r}, lines={self.lines_written})"


class ConsoleSink:
    """Human-readable, span-indented rendering to a text stream."""

    def __init__(self, stream: TextIO | None = None) -> None:
        """Render to ``stream`` (default: ``sys.stdout``, not owned)."""
        self.stream = stream if stream is not None else sys.stdout
        self._depth = 0

    def emit(self, record: "TraceRecord") -> None:
        """Render ``record`` as one indented console line."""
        if record.kind == "span_end":
            self._depth = max(0, self._depth - 1)
        pad = "  " * self._depth
        fields = " ".join(f"{k}={_fmt(v)}" for k, v in record.fields.items())
        marker = {"span_start": ">", "span_end": "<", "event": "."}.get(
            record.kind, "?"
        )
        self.stream.write(
            f"{record.t:10.6f} {pad}{marker} {record.name}"
            + (f" {fields}" if fields else "")
            + "\n"
        )
        if record.kind == "span_start":
            self._depth += 1

    def close(self) -> None:
        """Flush the stream (which is not owned, so not closed)."""
        self.stream.flush()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConsoleSink(depth={self._depth})"


def _fmt(value: object) -> str:
    """Compact scalar formatting for console lines."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
