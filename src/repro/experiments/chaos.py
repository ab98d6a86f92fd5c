"""Chaos sweep: injected fault rate vs achieved load movement.

Each sweep point runs one balancing round over the *same* Gaussian
scenario under a :class:`~repro.faults.FaultPlan` with an increasing
message-drop probability (plus a fixed mid-round crash budget and
per-transfer abort probability), and compares the load the degraded
round actually moved against the fault-free baseline round.  The
interesting output is graceful degradation: the movement ratio should
fall smoothly with the drop rate — never a hang, never a conservation
violation — while the recovery counters (retries, stale-LBI reuse,
rollbacks) show the machinery that absorbed the faults.

The sweep runs through ``repro-p2plb run chaos``.  ``python -m
repro.experiments.chaos --smoke`` runs the acceptance scenario from the
fault-injection work (small ring, fixed seed, 10% drop, one mid-round
crash) and asserts conservation, convergence and fault-sequence
reproducibility; ``scripts/verify.sh`` wires it in as the chaos smoke
stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.report import BalanceReport, check_conservation
from repro.experiments.common import (
    ExperimentSettings,
    build_ignorant_balancer,
    pct,
    run_checked_rounds,
    smoke_parser,
    sweep,
)
from repro.faults import FaultPlan

#: Drop probabilities swept by default (0.0 still injects the crash and
#: abort channels, so the first row shows their cost in isolation).
DEFAULT_DROP_RATES: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)


@dataclass(frozen=True)
class ChaosRow:
    """One sweep point: the fault knobs and what the round salvaged."""

    drop: float
    transfers: int
    failed_transfers: int
    moved_load: float
    movement_ratio: float  # moved load / fault-free baseline moved load
    heavy_after: int
    retries: int
    lost: int
    rollbacks: int
    crashed_nodes: int
    stale_lbi_reused: bool
    signature: str


@dataclass(frozen=True)
class ChaosResult:
    settings: ExperimentSettings
    crash_mid_round: int
    transfer_abort: float
    baseline_moved: float
    baseline_heavy_after: int
    rows: list[ChaosRow]

    def format_rows(self) -> str:
        lines = [
            "Chaos sweep - drop rate vs achieved load movement "
            f"(crashes/round={self.crash_mid_round}, "
            f"transfer_abort={self.transfer_abort})",
            f"  fault-free baseline: moved={self.baseline_moved:.4g} "
            f"heavy_after={self.baseline_heavy_after}",
            f"  {'drop':>6} {'moved%':>7} {'xfers':>6} {'failed':>7} "
            f"{'retries':>8} {'lost':>5} {'rollbk':>7} {'crash':>6} "
            f"{'stale':>6} {'heavy':>6}",
        ]
        for r in self.rows:
            lines.append(
                f"  {r.drop:>6.2f} {pct(r.movement_ratio):>7} "
                f"{r.transfers:>6} {r.failed_transfers:>7} "
                f"{r.retries:>8} {r.lost:>5} {r.rollbacks:>7} "
                f"{r.crashed_nodes:>6} {str(r.stale_lbi_reused):>6} "
                f"{r.heavy_after:>6}"
            )
        lines.append(
            "  [movement ratio should fall smoothly with the drop rate; "
            "every row conserved load]"
        )
        return "\n".join(lines)


def chaos_row(
    settings: ExperimentSettings,
    drop_rates: tuple[float, ...],
    crash_mid_round: int,
    transfer_abort: float,
    fault_seed: int,
    baseline_moved: float,
    rate_index: int,
) -> ChaosRow:
    """One sweep point: run the round at ``drop_rates[rate_index]``.

    Module-level and keyed by an integer index (not the float rate) so
    the parallel trial engine can ship it to workers via
    :func:`functools.partial`; a pure function of its arguments either
    way, so serial and parallel sweeps produce identical rows.
    """
    rate = drop_rates[rate_index]
    plan = FaultPlan(
        seed=fault_seed,
        drop=rate,
        crash_mid_round=crash_mid_round,
        transfer_abort=transfer_abort,
    )
    [report] = run_checked_rounds(
        build_ignorant_balancer(settings, faults=plan)
    )
    fs = report.fault_stats
    ratio = report.moved_load / baseline_moved if baseline_moved > 0 else 0.0
    return ChaosRow(
        drop=rate,
        transfers=len(report.transfers),
        failed_transfers=len(report.failed_assignments),
        moved_load=report.moved_load,
        movement_ratio=ratio,
        heavy_after=report.heavy_after,
        retries=fs.total_retries,
        lost=fs.total_lost,
        rollbacks=fs.vst_rollbacks,
        crashed_nodes=len(fs.crashed_nodes),
        stale_lbi_reused=fs.stale_lbi_reused,
        signature=fs.signature,
    )


def run(
    settings: ExperimentSettings | None = None,
    drop_rates: tuple[float, ...] = DEFAULT_DROP_RATES,
    crash_mid_round: int = 1,
    transfer_abort: float = 0.05,
    fault_seed: int | None = None,
) -> ChaosResult:
    """Sweep message-drop rates against one fixed scenario.

    The scenario seed is held constant across the sweep so every row
    faces the identical initial load distribution; only the fault plan
    changes.  ``fault_seed`` defaults to the scenario seed, keeping the
    whole sweep a pure function of the settings.  With
    ``settings.workers > 1`` the sweep points run in parallel through
    :class:`repro.parallel.TrialExecutor` (each point rebuilds its own
    scenario, so points share nothing and rows come out identical to a
    serial sweep's).
    """
    s = settings if settings is not None else ExperimentSettings.from_env()
    fseed = fault_seed if fault_seed is not None else s.seed
    [baseline] = run_checked_rounds(build_ignorant_balancer(s))

    row_fn = partial(
        chaos_row, s, drop_rates, crash_mid_round, transfer_abort, fseed,
        baseline.moved_load,
    )
    rows = sweep(row_fn, len(drop_rates), s.workers)
    return ChaosResult(
        settings=s,
        crash_mid_round=crash_mid_round,
        transfer_abort=transfer_abort,
        baseline_moved=baseline.moved_load,
        baseline_heavy_after=baseline.heavy_after,
        rows=rows,
    )


# ----------------------------------------------------------------------
# Smoke mode (the verify.sh chaos stage)
# ----------------------------------------------------------------------
def smoke(num_nodes: int = 64, seed: int = 7) -> str:
    """The acceptance scenario: degraded round must survive, reproducibly.

    Runs a full :class:`~repro.app.system.P2PSystem` rebalance on a
    small ring under ``FaultPlan(drop=0.1, crash_mid_round=1)`` twice
    with identical seeds and asserts:

    * the round completes without raising and conserves load;
    * the round still converges (heavy population strictly falls);
    * the recovery machinery actually engaged (faults were injected);
    * both runs injected the byte-identical fault sequence and reached
      the byte-identical final loads.

    Returns a one-line summary for the verify log; raises
    ``AssertionError`` on any violation.
    """
    from repro.app.system import P2PSystem, SystemConfig

    plan = FaultPlan(seed=3, drop=0.1, crash_mid_round=1, transfer_abort=0.1)

    def one_run() -> tuple[BalanceReport, str, list[float]]:
        system = P2PSystem(
            SystemConfig(initial_nodes=num_nodes, seed=seed), faults=plan
        )
        for i in range(6 * num_nodes):
            system.put(f"obj-{i}", load=float(1 + (i * 7919) % 97))
        report = system.rebalance()
        check_conservation(report)
        system.verify()
        loads = sorted(
            float(vs.load)
            for node in system.ring.alive_nodes
            for vs in node.virtual_servers
        )
        return report, report.fault_stats.signature, loads

    first, sig1, loads1 = one_run()
    second, sig2, loads2 = one_run()

    assert first.fault_stats.injected_total > 0, "no faults injected"
    assert first.heavy_after < first.heavy_before, (
        f"degraded round did not converge: heavy "
        f"{first.heavy_before} -> {first.heavy_after}"
    )
    assert sig1 == sig2, f"fault sequences diverged: {sig1} != {sig2}"
    assert loads1 == loads2, "final loads diverged across identical runs"
    assert second.fault_stats.injected_total == first.fault_stats.injected_total

    fs = first.fault_stats
    return (
        f"chaos smoke OK: nodes={num_nodes} heavy {first.heavy_before}->"
        f"{first.heavy_after} injected={fs.injected_total} "
        f"retries={fs.total_retries} rollbacks={fs.vst_rollbacks} "
        f"crashed={fs.crashed_nodes} signature={sig1[:12]} (reproduced)"
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.chaos --smoke`` entry point."""
    args = smoke_parser(
        "chaos",
        "run the small fixed-seed acceptance scenario and assert "
        "conservation, convergence and reproducibility",
    ).parse_args(argv)
    print(smoke(num_nodes=args.nodes, seed=args.seed))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
