"""The write-ahead transfer journal: checksummed JSONL, replayable.

Record format (one ASCII JSON object per line, sorted keys)::

    {"check": "16-hex", "kind": "prepare", "seq": 12, ...fields...}

``check`` is the first 16 hex digits of SHA-256 over the record's
canonical JSON *without* the ``check`` field; ``seq`` is the record's
position in the file.  On open the journal validates every line in
order and durably truncates at the first unparsable, checksum-failing
or out-of-sequence line — the torn tail a crash mid-append leaves
behind — so the surviving prefix is always internally consistent.

Write-ahead discipline: the balancer journals each VST
prepare/commit/rollback *intent* before
:class:`~repro.core.vst.TransferTransaction` applies it, brackets each
round with ``round_begin``/``round_end`` (the latter carrying the
report's canonical digest), and the recovery manager interleaves
``checkpoint`` and ``crash`` markers.  The journal therefore serves
three roles at once:

* a record of what the crashed round already did;
* **replay validation** — after a restore, :meth:`TransferJournal.begin_replay`
  arms the journaled tail as the *expected* sequence: the re-executed
  round's ``record`` calls must match it one for one (a mismatch means
  the restore diverged and raises
  :class:`~repro.exceptions.RecoveryError`), matched records are not
  re-written, and once the tail is consumed new records append
  normally — which is exactly what makes a double crash during
  recovery safe: the second run's extra records extend the same valid
  prefix for the third;
* the carrier of ``crash`` markers, from which the recovery manager
  disarms already-fired :class:`~repro.faults.CrashPoint` sites.

Group commit: every record is flushed as it is appended, but the file
is fsynced only after the kinds in :data:`SYNC_KINDS` — the records
that close a durable unit (``round_end``, ``checkpoint``, ``crash``).
A killed process therefore loses nothing it journaled; an OS crash
loses at most the records written since the last sync point.  Those
belong to the round in flight, which recovery restores from its
checkpoint and re-executes byte-identically, so a lost unsynced tail
only shortens the replay expectation.

The on-disk format is the same JSON-lines shape
:class:`repro.obs.sinks.JSONLSink` emits (see its ``append``/``sync``
modes), so journal files yield to the same ``jq``/pandas tooling as
trace streams.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import RecoveryError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_metrics, current_tracer
from repro.obs.trace import Tracer
from repro.recovery.durable import DurableAppendFile

#: Every record kind the journal accepts, in no particular order.
JOURNAL_KINDS = frozenset(
    {
        "round_begin",
        "prepare",
        "commit",
        "rollback",
        "suspend",
        "round_end",
        "checkpoint",
        "crash",
    }
)

#: Kinds subject to replay validation: the deterministic re-execution
#: of a restored round must reproduce exactly these.  ``checkpoint``
#: and ``crash`` markers are written by the recovery layer itself and
#: bypass the matcher.
REPLAYABLE_KINDS = frozenset(
    {"round_begin", "prepare", "commit", "rollback", "suspend", "round_end"}
)

#: Kinds after which the journal fsyncs (its group-commit points): each
#: closes a durable unit — a finished round, a checkpoint the next
#: restore starts from, a crash the restart must disarm.  Every other
#: record is flushed but not fsynced, so the sync count per round is a
#: constant, independent of the number of transfers.
SYNC_KINDS = frozenset({"round_end", "checkpoint", "crash"})


def _checksum(payload: Mapping[str, Any]) -> str:
    """First 16 hex digits of SHA-256 over the canonical payload JSON."""
    canonical = json.dumps(dict(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One validated journal entry (``seq`` = position in the file)."""

    seq: int
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        """Serialize to one checksummed ASCII JSON line (no newline)."""
        payload: dict[str, Any] = {"seq": self.seq, "kind": self.kind}
        payload.update(self.fields)
        payload["check"] = _checksum(
            {k: v for k, v in payload.items() if k != "check"}
        )
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str, expected_seq: int) -> "JournalRecord | None":
        """Parse and validate one line; ``None`` if it is torn/corrupt."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(payload, dict):
            return None
        check = payload.pop("check", None)
        if check != _checksum(payload):
            return None
        seq = payload.pop("seq", None)
        kind = payload.pop("kind", None)
        if seq != expected_seq or not isinstance(kind, str):
            return None
        if kind not in JOURNAL_KINDS:
            return None
        return cls(seq=int(seq), kind=kind, fields=payload)

    def matches(self, kind: str, fields: Mapping[str, Any]) -> bool:
        """Whether a re-executed record is identical to this journaled one."""
        return self.kind == kind and self.fields == dict(fields)


class TransferJournal:
    """Append-only, checksummed, replay-validating JSONL journal.

    Parameters
    ----------
    path:
        The journal file; created if absent, validated and torn-tail
        truncated if present.
    tracer:
        Structured tracer for ``recovery.*`` events; defaults to the
        process-wide one.
    metrics:
        Registry for ``recovery.journal_*`` counters; defaults to the
        process-wide one (``None`` = off).
    """

    def __init__(
        self,
        path: str | Any,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Open ``path``, validate its content and repair any torn tail."""
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        self._file = DurableAppendFile(path)
        self.path = self._file.path
        #: Records on file; the records themselves stay on disk and are
        #: read back on demand, so memory does not grow with the file.
        self._count = 0
        #: ``(byte offset, seq)`` just past the last checkpoint marker
        #: (``(0, 0)`` with none): where the replay tail starts.
        self._tail_start = (0, 0)
        #: The last ``checkpoint`` marker on file (``None`` with none).
        self.last_checkpoint: JournalRecord | None = None
        #: Byte length of the valid content.
        self._size = 0
        self.truncated_bytes = 0
        self._replay: deque[JournalRecord] = deque()
        self._load()

    # ------------------------------------------------------------------
    # Open-time validation
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Validate the file front to back; truncate at the first bad line."""
        raw = self._file.read_bytes()
        offset = 0
        good_end = 0
        for chunk in raw.split(b"\n"):
            line_end = offset + len(chunk) + 1  # +1 for the newline
            if not chunk:
                offset = line_end
                continue
            record = JournalRecord.from_line(
                chunk.decode("utf-8", errors="replace"), self._count
            )
            if record is None or line_end > len(raw):
                # Unparsable, checksum-failing, out-of-sequence, or a
                # final line with no terminating newline: the torn tail.
                break
            self._count += 1
            if record.kind == "checkpoint":
                self._tail_start = (line_end, self._count)
                self.last_checkpoint = record
            offset = line_end
            good_end = line_end
        self._size = good_end
        if good_end < len(raw):
            self.truncated_bytes = len(raw) - good_end
            self._file.truncate_to(good_end)
            if self.metrics is not None:
                self.metrics.counter("recovery.journal_truncated_bytes").inc(
                    self.truncated_bytes
                )
            if self.tracer.enabled:
                self.tracer.event(
                    "recovery.journal_truncate",
                    bytes=self.truncated_bytes,
                    kept_records=self._count,
                )

    # ------------------------------------------------------------------
    # Writing (and replay matching)
    # ------------------------------------------------------------------
    def _append(self, kind: str, fields: dict[str, Any]) -> JournalRecord:
        record = JournalRecord(seq=self._count, kind=kind, fields=fields)
        line = record.to_line()
        self._file.append_line(line)
        if kind in SYNC_KINDS:
            self._file.sync()
        self._count += 1
        self._size += len(line) + 1  # ASCII line plus its newline
        if kind == "checkpoint":
            self._tail_start = (self._size, self._count)
            self.last_checkpoint = record
        if self.metrics is not None:
            self.metrics.counter("recovery.journal_records").inc()
        return record

    def record(self, kind: str, **fields: Any) -> JournalRecord:
        """Journal one record (or match it against the replay tail).

        Outside replay mode this is a plain write-ahead append, synced
        to disk if ``kind`` is a group-commit point (:data:`SYNC_KINDS`).
        In replay mode (armed by :meth:`begin_replay` after a restore) the
        call must reproduce the next expected record exactly — same
        kind, same fields — in which case nothing is re-written and the
        journaled record is returned; any divergence raises
        :class:`~repro.exceptions.RecoveryError`.
        """
        if kind not in JOURNAL_KINDS:
            raise RecoveryError(f"unknown journal record kind {kind!r}")
        if self._replay:
            expected = self._replay.popleft()
            if not expected.matches(kind, fields):
                raise RecoveryError(
                    "replay divergence: restored run produced "
                    f"{kind} {fields!r} where the journal expects "
                    f"{expected.kind} {expected.fields!r} (seq {expected.seq})"
                )
            return expected
        return self._append(kind, dict(fields))

    def record_crash(self, round_index: int, site: str) -> JournalRecord:
        """Durably mark a fired crash (bypasses replay matching).

        Crash markers are written by the recovery layer *after* catching
        the :class:`~repro.exceptions.ProcessCrashError`, possibly while
        a replay tail is still armed (a double crash during recovery);
        they must therefore never be matched against expected protocol
        records.
        """
        return self._append(
            "crash", {"round": round_index, "site": site}
        )

    def begin_replay(self, expected: list[JournalRecord]) -> None:
        """Arm replay validation with the journaled tail of a crashed round."""
        self._replay = deque(
            r for r in expected if r.kind in REPLAYABLE_KINDS
        )

    @property
    def checkpointed(self) -> bool:
        """Whether the file holds at least one ``checkpoint`` marker."""
        return self.last_checkpoint is not None

    @property
    def replaying(self) -> bool:
        """Whether a replay tail is still armed (and not fully consumed)."""
        return bool(self._replay)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read(self, offset: int, seq: int) -> list[JournalRecord]:
        """The records on file from byte ``offset`` (record ``seq``) on."""
        records: list[JournalRecord] = []
        raw = self._file.read_bytes(offset)[: self._size - offset]
        for chunk in raw.split(b"\n")[:-1]:
            record = JournalRecord.from_line(
                chunk.decode("utf-8"), seq + len(records)
            )
            if record is None:  # pragma: no cover - validated on open/append
                raise RecoveryError(
                    f"journal {self.path} changed under its writer at "
                    f"record {seq + len(records)}"
                )
            records.append(record)
        return records

    @property
    def entries(self) -> list[JournalRecord]:
        """Every record on file, read back in order."""
        return self._read(0, 0)

    def tail_after_last_checkpoint(self) -> list[JournalRecord]:
        """Every record after the last ``checkpoint`` marker (exclusive).

        This is the journal's view of the crashed round in progress:
        what the recovery manager replays after restoring the snapshot
        that checkpoint marker refers to.  With no checkpoint on file
        the whole journal is the tail.  Only the tail is read back.
        """
        return self._read(*self._tail_start)

    def crash_markers(self, records: list[JournalRecord]) -> list[tuple[int, str]]:
        """The ``(round, site)`` pairs of every crash marker in ``records``."""
        return [
            (int(r.fields["round"]), str(r.fields["site"]))
            for r in records
            if r.kind == "crash"
        ]

    def close(self) -> None:
        """Sync and close the underlying append file."""
        self._file.close()

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransferJournal({str(self.path)!r}, records={self._count}, "
            f"replaying={self.replaying})"
        )
