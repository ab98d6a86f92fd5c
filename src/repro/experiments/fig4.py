"""Figure 4: unit load per node before/after balancing (Gaussian loads).

Paper setup: 4096-node Chord, 5 virtual servers each, Gaussian loads,
K=2 tree.  Expected outcome: ~75% of nodes heavy before balancing; zero
heavy after (all excess load moved to lights).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.figures import Figure4Data, figure4_data
from repro.core.report import BalanceReport
from repro.experiments.common import (
    ExperimentSettings,
    build_ignorant_balancer,
    pct,
    run_checked_rounds,
)


@dataclass(frozen=True)
class Fig4Result:
    settings: ExperimentSettings
    data: Figure4Data
    report: BalanceReport

    def format_rows(self) -> str:
        d = self.data
        lines = [
            "Figure 4 - unit load before/after load balancing (Gaussian)",
            f"  nodes={len(d.node_ids)}  heavy before: {d.heavy_before} "
            f"({pct(d.heavy_fraction_before)})  [paper: ~75%]",
            f"  heavy after: {d.heavy_after}  [paper: 0]",
            f"  unit load before: max={d.unit_before.max():.1f} "
            f"mean={d.unit_before.mean():.2f} (fair ratio L/C={d.target_unit:.2f})",
            f"  unit load after:  max={d.unit_after.max():.2f} "
            f"mean={d.unit_after.mean():.2f}",
        ]
        return "\n".join(lines)


def run(settings: ExperimentSettings | None = None) -> Fig4Result:
    """Run the figure-4 experiment (identifier-space only, no topology)."""
    s = settings if settings is not None else ExperimentSettings.from_env()
    [report] = run_checked_rounds(build_ignorant_balancer(s))
    return Fig4Result(settings=s, data=figure4_data(report), report=report)
