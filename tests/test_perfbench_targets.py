"""The round benchmark resolves every name it patches.

``perfbench/spans.py`` wraps the program's functions and methods by
name (its ``TARGETS`` table), and ``perfbench/scenarios.py`` imports
engine names directly.  Deleting or moving any one of them makes
``SpanRecorder.prepare`` raise, which breaks traced benchmark runs.
This test imports both modules the way ``perfbench/run.py`` does and
resolves the whole table, so such a deletion fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_span_targets_resolve(monkeypatch: pytest.MonkeyPatch) -> None:
    # No bytecode is written into the benchmark directory.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import scenarios  # noqa: F401
        import spans

        recorder = spans.SpanRecorder()
        recorder.prepare(extra_modules=("scenarios",))
        patched = {attr for _, attr, _, _ in recorder._patches}
        assert patched >= {attr for _, _, attr, _ in spans.TARGETS}
    finally:
        for name in ("scenarios", "spans"):
            sys.modules.pop(name, None)
