"""Tests for the write-ahead transfer journal and the durable layer.

Covers the journal's durability contract in isolation: checksummed
round-trips, torn-tail truncation in every flavour a crash can leave
behind (partial line, corrupted line, out-of-sequence line, missing
final newline), replay validation (match, divergence, crash markers
bypassing the matcher), the checkpoint-tail view the recovery
manager restores from, and memory that stays flat as the file grows.
"""

import gc
import json
import tracemalloc

import pytest

from repro.exceptions import RecoveryError
from repro.obs.sinks import JSONLSink
from repro.obs.trace import TraceRecord
from repro.recovery import JournalRecord, TransferJournal, resolve_state_dir
from repro.recovery.durable import STATE_DIR_ENV
from repro.recovery.journal import JOURNAL_KINDS, REPLAYABLE_KINDS, SYNC_KINDS


def _journal(tmp_path, name="journal.jsonl"):
    return TransferJournal(tmp_path / name)


class TestRecordFormat:
    def test_line_round_trip(self):
        record = JournalRecord(seq=0, kind="prepare", fields={"vs": 9, "load": "0x1.0p20"})
        parsed = JournalRecord.from_line(record.to_line(), expected_seq=0)
        assert parsed == record

    def test_checksum_covers_fields(self):
        line = JournalRecord(seq=0, kind="commit", fields={"vs": 1}).to_line()
        payload = json.loads(line)
        payload["vs"] = 2  # tamper without re-checksumming
        assert JournalRecord.from_line(json.dumps(payload), 0) is None

    def test_wrong_seq_rejected(self):
        line = JournalRecord(seq=3, kind="commit", fields={}).to_line()
        assert JournalRecord.from_line(line, expected_seq=0) is None

    def test_unknown_kind_rejected_at_parse_and_write(self, tmp_path):
        bogus = JournalRecord(seq=0, kind="frobnicate", fields={})
        assert JournalRecord.from_line(bogus.to_line(), 0) is None
        journal = _journal(tmp_path)
        with pytest.raises(RecoveryError):
            journal.record("frobnicate")
        journal.close()

    def test_replayable_kinds_subset(self):
        assert REPLAYABLE_KINDS < JOURNAL_KINDS
        assert "crash" not in REPLAYABLE_KINDS
        assert "checkpoint" not in REPLAYABLE_KINDS


class TestPersistence:
    def test_records_survive_reopen(self, tmp_path):
        journal = _journal(tmp_path)
        journal.record("round_begin", round=0)
        journal.record("prepare", vs=7, source=1, target=2)
        journal.record("commit", vs=7)
        journal.record("round_end", round=0, digest="d" * 16)
        journal.close()

        reopened = _journal(tmp_path)
        assert [r.kind for r in reopened.entries] == [
            "round_begin",
            "prepare",
            "commit",
            "round_end",
        ]
        assert reopened.entries[1].fields == {"vs": 7, "source": 1, "target": 2}
        assert reopened.truncated_bytes == 0
        reopened.close()

    @pytest.mark.parametrize(
        "tail",
        [
            b'{"torn',  # partial JSON, no newline
            b'{"check":"0000000000000000","kind":"commit","seq":2}\n',  # bad checksum
            b"not json at all\n",
        ],
    )
    def test_torn_tail_truncated_on_open(self, tmp_path, tail):
        journal = _journal(tmp_path)
        journal.record("round_begin", round=0)
        journal.record("prepare", vs=1, source=0, target=1)
        journal.close()
        path = tmp_path / "journal.jsonl"
        good = path.read_bytes()
        path.write_bytes(good + tail)

        repaired = _journal(tmp_path)
        assert len(repaired.entries) == 2
        assert repaired.truncated_bytes == len(tail)
        assert path.read_bytes() == good  # durably truncated back
        repaired.record("commit", vs=1)  # appends resume at the right seq
        repaired.close()
        assert _journal(tmp_path).entries[-1].kind == "commit"

    def test_out_of_sequence_line_truncates_rest(self, tmp_path):
        journal = _journal(tmp_path)
        journal.record("round_begin", round=0)
        journal.close()
        path = tmp_path / "journal.jsonl"
        # A valid record with the wrong seq, followed by a valid one:
        # everything from the first bad line onward must go.
        bad = JournalRecord(seq=5, kind="commit", fields={}).to_line()
        good_after = JournalRecord(seq=1, kind="commit", fields={}).to_line()
        path.write_bytes(
            path.read_bytes() + (bad + "\n" + good_after + "\n").encode()
        )
        repaired = _journal(tmp_path)
        assert [r.kind for r in repaired.entries] == ["round_begin"]
        repaired.close()

    def test_empty_file_is_valid(self, tmp_path):
        journal = _journal(tmp_path)
        assert len(journal) == 0
        assert journal.tail_after_last_checkpoint() == []
        journal.close()


class TestGroupCommit:
    """Records are flushed as written, fsynced only at the sync points."""

    def test_only_unit_closing_kinds_sync(self, tmp_path, fsync_calls):
        assert SYNC_KINDS == {"round_end", "checkpoint", "crash"}
        assert SYNC_KINDS < JOURNAL_KINDS
        journal = _journal(tmp_path)
        for kind in sorted(JOURNAL_KINDS - SYNC_KINDS):
            journal.record(kind, vs=1)
        assert fsync_calls == []
        # Unsynced records are already flushed: a second reader sees them.
        reader = _journal(tmp_path)
        assert len(reader.entries) == len(JOURNAL_KINDS - SYNC_KINDS)
        reader.close()
        before = len(fsync_calls)
        journal.record("checkpoint", round=1, digest="c" * 16)
        assert len(fsync_calls) == before + 1
        journal.record("round_end", round=1, digest="e" * 16)
        assert len(fsync_calls) == before + 2
        journal.close()

    def test_record_crash_syncs_even_while_replaying(self, tmp_path, fsync_calls):
        journal = _journal(tmp_path)
        journal.record("checkpoint", round=1, digest="c" * 16)
        journal.record("round_begin", round=1)
        journal.begin_replay(journal.tail_after_last_checkpoint())
        before = len(fsync_calls)
        journal.record_crash(1, "mid-vst-batch")
        assert len(fsync_calls) == before + 1
        assert journal.replaying
        journal.close()

    def test_truncate_and_close_sync(self, tmp_path, fsync_calls):
        journal = _journal(tmp_path)
        journal.record("round_begin", round=0)
        journal.close()
        assert len(fsync_calls) == 1  # close syncs what was appended
        path = tmp_path / "journal.jsonl"
        path.write_bytes(path.read_bytes() + b'{"torn')
        repaired = _journal(tmp_path)  # truncate_to on open
        assert repaired.truncated_bytes == len(b'{"torn')
        assert len(fsync_calls) == 2
        repaired.close()
        repaired.close()  # a second close is a no-op
        assert len(fsync_calls) == 3


class TestReplay:
    def _crashed_round(self, tmp_path):
        journal = _journal(tmp_path)
        journal.record("checkpoint", round=1, digest="c" * 16)
        journal.record("round_begin", round=1)
        journal.record("prepare", vs=4, source=0, target=3)
        journal.record("commit", vs=4)
        return journal

    def test_tail_after_last_checkpoint(self, tmp_path):
        journal = self._crashed_round(tmp_path)
        tail = journal.tail_after_last_checkpoint()
        assert [r.kind for r in tail] == ["round_begin", "prepare", "commit"]
        journal.close()

    def test_replay_matches_without_rewriting(self, tmp_path):
        journal = self._crashed_round(tmp_path)
        before = len(journal)
        journal.begin_replay(journal.tail_after_last_checkpoint())
        assert journal.replaying
        journal.record("round_begin", round=1)
        journal.record("prepare", vs=4, source=0, target=3)
        journal.record("commit", vs=4)
        assert not journal.replaying
        assert len(journal) == before  # matched records are not re-written
        journal.record("round_end", round=1, digest="e" * 16)
        assert len(journal) == before + 1
        journal.close()

    def test_replay_divergence_raises(self, tmp_path):
        journal = self._crashed_round(tmp_path)
        journal.begin_replay(journal.tail_after_last_checkpoint())
        journal.record("round_begin", round=1)
        with pytest.raises(RecoveryError, match="replay divergence"):
            journal.record("prepare", vs=99, source=0, target=3)
        journal.close()

    def test_crash_markers_bypass_replay(self, tmp_path):
        journal = self._crashed_round(tmp_path)
        journal.begin_replay(journal.tail_after_last_checkpoint())
        # A double crash during recovery writes its marker while the
        # replay tail is still armed; the matcher must not see it.
        journal.record_crash(1, "mid-vst-batch")
        assert journal.replaying
        assert journal.entries[-1].kind == "crash"
        assert journal.crash_markers(journal.entries) == [(1, "mid-vst-batch")]
        journal.close()

    def test_begin_replay_filters_markers(self, tmp_path):
        journal = self._crashed_round(tmp_path)
        journal.record_crash(1, "post-lbi-fold")
        tail = journal.tail_after_last_checkpoint()
        journal.begin_replay(tail)
        journal.record("round_begin", round=1)
        journal.record("prepare", vs=4, source=0, target=3)
        journal.record("commit", vs=4)
        assert not journal.replaying  # the crash marker was never expected
        journal.close()


class TestStateDirAndSink:
    def test_resolve_state_dir_env_and_explicit(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path / "from-env"))
        assert resolve_state_dir(None) == tmp_path / "from-env"
        assert (tmp_path / "from-env").is_dir()
        explicit = resolve_state_dir(tmp_path / "explicit")
        assert explicit == tmp_path / "explicit"
        assert explicit.is_dir()

    @staticmethod
    def _record(name, seq):
        return TraceRecord(
            kind="event", name=name, span_id=0, parent_id=None, seq=seq, t=0.0
        )

    def test_jsonl_sink_append_mode(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = JSONLSink(path)
        first.emit(self._record("a", 0))
        first.close()
        second = JSONLSink(path, append=True, sync=True)
        second.emit(self._record("b", 1))
        # sync mode makes the line durable before close
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in events] == ["a", "b"]
        second.close()

    def test_jsonl_sink_truncate_default(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = JSONLSink(path)
        first.emit(self._record("a", 0))
        first.close()
        sink = JSONLSink(path)  # append=False truncates
        sink.emit(self._record("c", 1))
        sink.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in events] == ["c"]


class TestBoundedMemory:
    def test_memory_held_does_not_grow_with_records(self, tmp_path):
        journal = _journal(tmp_path)
        journal.record("checkpoint", round=0, digest="c" * 16)

        def append(count):
            for i in range(count):
                journal.record("prepare", vs=i, source=0, target=1, load="0x1.0p20")

        tracemalloc.start()
        try:
            append(50)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            append(1000)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 1000 records held as objects would be well over 100 kB.
        assert grown < 16 * 1024
        assert len(journal) == 1051
        tail = journal.tail_after_last_checkpoint()
        assert len(tail) == 1050
        assert tail[-1] == JournalRecord(
            seq=1050,
            kind="prepare",
            fields={"vs": 999, "source": 0, "target": 1, "load": "0x1.0p20"},
        )
        journal.close()

    def test_tail_follows_the_last_checkpoint_across_reopen(self, tmp_path):
        journal = _journal(tmp_path)
        journal.record("round_begin", round=0)
        journal.record("checkpoint", round=1, digest="a" * 16)
        journal.record("round_begin", round=1)
        journal.close()
        reopened = _journal(tmp_path)
        assert [r.seq for r in reopened.tail_after_last_checkpoint()] == [2]
        reopened.record("checkpoint", round=2, digest="b" * 16)
        assert reopened.tail_after_last_checkpoint() == []
        reopened.record("commit", vs=3)
        assert [r.kind for r in reopened.tail_after_last_checkpoint()] == ["commit"]
        assert [r.seq for r in reopened.entries] == [0, 1, 2, 3, 4]
        reopened.close()
