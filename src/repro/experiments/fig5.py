"""Figure 5: load by capacity category, Gaussian distribution.

Expected shape: before balancing, mean load is flat across capacity
categories (load is placed by hashing, blind to capacity); after
balancing, mean load increases monotonically with capacity — the two
skews (load and capacity) aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.figures import Figure56Data, figure56_data
from repro.core.report import BalanceReport
from repro.experiments.common import (
    ExperimentSettings,
    build_ignorant_balancer,
    run_checked_rounds,
)


@dataclass(frozen=True)
class Fig56Result:
    settings: ExperimentSettings
    data: Figure56Data
    report: BalanceReport

    def format_rows(self) -> str:
        d = self.data
        lines = [
            f"Figure {'5' if d.distribution == 'gaussian' else '6'} - "
            f"load vs capacity category ({d.distribution})",
            f"  {'capacity':>10} {'count':>6} {'mean load before':>17} "
            f"{'mean load after':>16} {'share before':>13} {'share after':>12}",
        ]
        for c in d.categories:
            s = d.summary[float(c)]
            lines.append(
                f"  {c:>10g} {s['count']:>6d} {s['mean_load_before']:>17.1f} "
                f"{s['mean_load_after']:>16.1f} {100 * s['share_before']:>12.1f}% "
                f"{100 * s['share_after']:>11.1f}%"
            )
        lines.append(
            "  [paper: after balancing, higher-capacity categories carry more load]"
        )
        return "\n".join(lines)


def run(settings: ExperimentSettings | None = None) -> Fig56Result:
    """Run the figure-5 experiment (Gaussian loads, capacity alignment)."""
    s = settings if settings is not None else ExperimentSettings.from_env()
    [report] = run_checked_rounds(build_ignorant_balancer(s))
    return Fig56Result(
        settings=s, data=figure56_data(report, "gaussian"), report=report
    )
