"""Unit tests for :mod:`repro.obs.trace` and :mod:`repro.obs.sinks`."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    NULL_TRACER,
    ConsoleSink,
    InMemorySink,
    JSONLSink,
    MetricsRegistry,
    NullSink,
    Sink,
    Tracer,
    current_metrics,
    current_tracer,
    observe,
    set_metrics,
    set_tracer,
)


class TestTracer:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("round") as span:
            span.event("x", a=1)
        NULL_TRACER.event("y")
        assert NULL_TRACER._seq == 0

    def test_span_nesting_and_record_kinds(self):
        tracer = Tracer.in_memory()
        with tracer.span("round", nodes=4):
            with tracer.span("lbi") as lbi:
                lbi.event("lbi.level", level=3)
        records = tracer.sink.records
        assert [r.kind for r in records] == [
            "span_start", "span_start", "event", "span_end", "span_end",
        ]
        round_start, lbi_start, level_ev, lbi_end, round_end = records
        assert round_start.parent_id is None
        assert lbi_start.parent_id == round_start.span_id
        assert level_ev.span_id == lbi_start.span_id
        assert round_end.span_id == round_start.span_id
        assert lbi_end.fields["seconds"] >= 0.0

    def test_seq_is_total_order(self):
        tracer = Tracer.in_memory()
        with tracer.span("a"):
            tracer.event("e1")
            tracer.event("e2")
        seqs = [r.seq for r in tracer.sink.records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_event_outside_any_span(self):
        tracer = Tracer.in_memory()
        tracer.event("loose", a=1)
        (rec,) = tracer.sink.records
        assert rec.span_id == 0 and rec.parent_id is None

    def test_span_end_is_idempotent(self):
        tracer = Tracer.in_memory()
        span = tracer.span("a")
        span.end()
        span.end()
        assert len(tracer.sink.spans("a")) == 1

    def test_close_ends_dangling_spans_and_closes_sink(self):
        tracer = Tracer.in_memory()
        tracer.span("outer")
        tracer.span("inner")
        tracer.close()
        assert tracer.sink.closed
        assert [r.name for r in tracer.sink.spans()] == ["inner", "outer"]

    def test_tracer_with_null_sink_is_disabled(self):
        assert Tracer(NullSink()).enabled is False

    def test_muted_block_emits_nothing_and_seq_continues(self):
        tracer = Tracer.in_memory()
        tracer.event("before")
        with tracer.muted():
            with tracer.span("round") as span:
                span.event("inside")
            tracer.event("inside")
        tracer.event("after")
        records = tracer.sink.records
        assert [r.name for r in records] == ["before", "after"]
        assert [r.seq for r in records] == [0, 1]
        assert tracer.enabled
        with NULL_TRACER.muted():
            pass
        assert NULL_TRACER.enabled is False


class TestInMemorySink:
    def test_filters(self):
        tracer = Tracer.in_memory()
        with tracer.span("round"):
            tracer.event("vst.transfer", load=1.0)
            tracer.event("vst.skip", reason="stale")
        sink = tracer.sink
        assert len(sink.events()) == 2
        assert len(sink.events("vst.transfer")) == 1
        assert len(sink.spans("round")) == 1
        assert [r.kind for r in sink.records if r.name == "round"] == [
            "span_start", "span_end",
        ]
        assert len(sink) == 4


class TestJSONLSink:
    def test_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_file(path)
        with tracer.span("round", nodes=2):
            tracer.event("vst.transfer", load=3.5, distance=2.0)
        tracer.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "span_start"
        assert parsed[1]["fields"]["load"] == 3.5
        assert parsed[2]["fields"]["seconds"] >= 0.0

    def test_emit_after_close_raises(self, tmp_path):
        tracer = Tracer.to_file(tmp_path / "t.jsonl")
        tracer.event("e")
        tracer.close()
        with pytest.raises(ValueError):
            tracer.sink.emit(None)


class TestConsoleSink:
    def test_renders_indented_lines(self):
        buf = io.StringIO()
        tracer = Tracer(ConsoleSink(buf))
        with tracer.span("round"):
            tracer.event("vst.transfer", load=1.25)
        tracer.close()
        out = buf.getvalue().splitlines()
        assert "> round" in out[0]
        assert ". vst.transfer load=1.25" in out[1]
        assert "< round" in out[2]
        # events inside the span are indented deeper than the span itself
        assert out[1].index(". vst") > out[0].index("> round")


class TestSinkProtocol:
    def test_builtin_sinks_satisfy_protocol(self):
        for sink in (NullSink(), InMemorySink(), ConsoleSink(io.StringIO())):
            assert isinstance(sink, Sink)


class TestRuntime:
    def test_defaults_are_off(self):
        assert current_tracer() is NULL_TRACER
        assert current_metrics() is None

    def test_set_and_restore(self):
        tracer = Tracer.in_memory()
        prev = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(prev)
        assert current_tracer() is NULL_TRACER

    def test_set_metrics_returns_previous(self):
        reg = MetricsRegistry()
        assert set_metrics(reg) is None
        assert set_metrics(None) is reg
        assert current_metrics() is None

    def test_observe_scopes_defaults(self):
        with observe() as (tracer, metrics):
            assert current_tracer() is tracer
            assert current_metrics() is metrics
            assert tracer.enabled
        assert current_tracer() is NULL_TRACER
        assert current_metrics() is None

    def test_observe_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with observe():
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER
        assert current_metrics() is None

    def test_observe_accepts_explicit_instruments(self):
        tracer = Tracer.in_memory()
        reg = MetricsRegistry()
        with observe(tracer=tracer, metrics=reg) as (t, m):
            assert t is tracer and m is reg
