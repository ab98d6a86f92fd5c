"""Figure 6: load by capacity category, Pareto distribution.

Same alignment experiment as figure 5 but with the heavy-tailed Pareto
load model (shape 1.5, infinite variance).  A handful of extreme virtual
servers may exceed every light node's spare capacity and remain in
place — matching the paper's observation that balance quality degrades
only gracefully under Pareto.
"""

from __future__ import annotations

from repro.analysis.figures import figure56_data
from repro.experiments.common import (
    ExperimentSettings,
    build_ignorant_balancer,
    run_checked_rounds,
)
from repro.experiments.fig5 import Fig56Result
from repro.workloads.loads import ParetoLoadModel


def run(settings: ExperimentSettings | None = None) -> Fig56Result:
    """Run the figure-6 experiment (Pareto loads, capacity alignment)."""
    s = settings if settings is not None else ExperimentSettings.from_env()
    [report] = run_checked_rounds(
        build_ignorant_balancer(s, ParetoLoadModel(mu=s.mu))
    )
    return Fig56Result(
        settings=s, data=figure56_data(report, "pareto"), report=report
    )
