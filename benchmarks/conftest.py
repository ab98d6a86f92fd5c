"""Shared benchmark configuration.

The benches here are ablations and cost/scaling measurements.  The
paper's figures and claims have no bench: ``repro-p2plb run <id>`` is
each registered experiment's one driver, and its shape assertions live
in the tier-1 tests (``tests/test_experiments.py``,
``tests/test_experiment_byzantine.py``).

Benchmarks default to a reduced scale (512 nodes); set
``REPRO_SCALE=paper`` to run everything at the paper's 4096-node scale.
Each bench hands its result table to :func:`emit`, and the session
prints every table once at the end (``pytest benchmarks/ -s``).

Observability hook (opt-in): set ``REPRO_OBS_OUT=DIR`` and the session
installs a process-wide :class:`repro.obs.MetricsRegistry` that every
balancer built by a benchmark reports into; at session end the
accumulated snapshot is written to ``DIR/bench-metrics.json``.  Unset,
nothing is installed and benchmark timings are untouched.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentSettings


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return ExperimentSettings.from_env()


@pytest.fixture(scope="session", autouse=True)
def obs_metrics():
    """Install a session metrics registry when REPRO_OBS_OUT is set."""
    out_dir = os.environ.get("REPRO_OBS_OUT")
    if not out_dir:
        yield None
        return
    from repro.obs import MetricsRegistry, set_metrics

    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        path = registry.write_json(target / "bench-metrics.json")
        print(f"\n[obs] wrote {path}")


@pytest.fixture(scope="session")
def report_lines():
    """Collect result tables; print them once at session end."""
    lines: list[str] = []
    yield lines
    if lines:
        print("\n" + "\n".join(lines))


def emit(report_lines: list[str], title: str, body: str) -> None:
    report_lines.append("")
    report_lines.append("=" * 72)
    report_lines.append(title)
    report_lines.append("=" * 72)
    report_lines.append(body)
