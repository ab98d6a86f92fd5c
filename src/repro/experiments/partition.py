"""Partition tolerance: degraded rounds, healing, and the books balancing.

Each sweep point runs several consecutive balancing rounds over the
*same* Gaussian scenario under a :class:`~repro.faults.FaultPlan` that
severs the ring into components for a window of rounds
(:class:`~repro.faults.PartitionSpec`), optionally cutting mid-round so
in-flight transfers are caught on the wire.  The interesting outputs
are the robustness invariants, not throughput:

* every degraded round balances per *component* and still conserves
  load globally (in-flight load is carried on both sides of the books);
* the heal reconciles every suspended transfer — committed when both
  endpoints survived, rolled back otherwise — and the post-heal epoch
  carries no partition-era state;
* the whole history (epochs, suspensions, heal outcomes, final loads)
  is a pure function of ``(scenario seed, fault plan)``.

The sweep runs through ``repro-p2plb run partition``.  ``python -m
repro.experiments.partition --smoke`` runs the acceptance scenario
(small ring, fixed seed, mid-round 2-way split healing two rounds
later) and asserts all of the above; ``--corrupt-heal`` flips a test
hook that drops one suspended transfer during reconciliation, so the
conservation guard must abort the run with a non-zero exit — the
negative control proving the defense is live.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.report import BalanceReport
from repro.experiments.common import (
    ExperimentSettings,
    build_ignorant_balancer,
    run_checked_rounds,
    smoke_parser,
    sweep,
)
from repro.faults import FaultPlan, PartitionSpec

#: Component counts swept by default: the ring is cut into this many
#: pieces mid-round, held apart for two rounds, then healed.
DEFAULT_COMPONENT_COUNTS: tuple[int, ...] = (2, 3, 4)

#: Rounds each sweep point runs: pre-partition round, the partition
#: window, the heal round and one clean round after.
ROUNDS_PER_POINT = 5


@dataclass(frozen=True)
class PartitionRow:
    """One sweep point: the split shape and how the system rode it out."""

    num_components: int
    partitioned_rounds: int
    final_epoch: int
    suspended: int
    healed_commits: int
    healed_rollbacks: int
    regrafts: int
    quarantined: int
    transfers: int
    moved_load: float
    heavy_start: int
    heavy_end: int
    signature: str
    final_digest: str


@dataclass(frozen=True)
class PartitionResult:
    settings: ExperimentSettings
    duration: int
    drop: float
    corrupt: float
    rows: list[PartitionRow]

    def format_rows(self) -> str:
        lines = [
            "Partition sweep - component count vs heal outcome "
            f"(duration={self.duration} rounds, drop={self.drop}, "
            f"corrupt={self.corrupt})",
            f"  {'comps':>6} {'degr':>5} {'epoch':>6} {'susp':>5} "
            f"{'commit':>7} {'rollbk':>7} {'regraft':>8} {'quar':>5} "
            f"{'xfers':>6} {'heavy':>11}",
        ]
        for r in self.rows:
            lines.append(
                f"  {r.num_components:>6} {r.partitioned_rounds:>5} "
                f"{r.final_epoch:>6} {r.suspended:>5} "
                f"{r.healed_commits:>7} {r.healed_rollbacks:>7} "
                f"{r.regrafts:>8} {r.quarantined:>5} {r.transfers:>6} "
                f"{r.heavy_start:>4} -> {r.heavy_end:>4}"
            )
        lines.append(
            "  [every row conserved load globally through partition and "
            "heal; suspended == commit + rollback]"
        )
        return "\n".join(lines)


def partition_row(
    settings: ExperimentSettings,
    component_counts: tuple[int, ...],
    duration: int,
    drop: float,
    corrupt: float,
    fault_seed: int,
    count_index: int,
) -> PartitionRow:
    """One sweep point: partition into ``component_counts[count_index]``.

    Module-level and keyed by an integer index so the parallel trial
    engine can ship it to workers via :func:`functools.partial`; a pure
    function of its arguments either way, so serial and parallel sweeps
    produce identical rows.
    """
    num_components = component_counts[count_index]
    plan = FaultPlan(
        seed=fault_seed,
        drop=drop,
        corrupt=corrupt,
        partitions=(
            PartitionSpec(
                at_round=1,
                duration=duration,
                num_components=num_components,
                mid_round=True,
            ),
        ),
    )
    reports = run_checked_rounds(
        build_ignorant_balancer(settings, faults=plan), ROUNDS_PER_POINT
    )
    fs = [r.fault_stats for r in reports]
    return PartitionRow(
        num_components=num_components,
        partitioned_rounds=sum(1 for s in fs if s.partition_components > 1),
        final_epoch=fs[-1].epoch,
        suspended=sum(s.suspended_transfers for s in fs),
        healed_commits=sum(s.healed_commits for s in fs),
        healed_rollbacks=sum(s.healed_rollbacks for s in fs),
        regrafts=sum(s.regrafts for s in fs),
        quarantined=sum(len(s.quarantined_nodes) for s in fs),
        transfers=sum(len(r.transfers) for r in reports),
        moved_load=sum(r.moved_load for r in reports),
        heavy_start=reports[0].heavy_before,
        heavy_end=reports[-1].heavy_after,
        signature=fs[-1].signature,
        final_digest=reports[-1].canonical_digest(),
    )


def run(
    settings: ExperimentSettings | None = None,
    component_counts: tuple[int, ...] = DEFAULT_COMPONENT_COUNTS,
    duration: int = 2,
    drop: float = 0.05,
    corrupt: float = 0.0,
    fault_seed: int | None = None,
) -> PartitionResult:
    """Sweep partition component counts against one fixed scenario.

    The scenario seed is held constant across the sweep so every row
    faces the identical initial load distribution; only the partition
    shape changes.  ``fault_seed`` defaults to the scenario seed,
    keeping the whole sweep a pure function of the settings.  With
    ``settings.workers > 1`` the sweep points run in parallel through
    :class:`repro.parallel.TrialExecutor` (each point rebuilds its own
    scenario, so rows come out identical to a serial sweep's).
    """
    s = settings if settings is not None else ExperimentSettings.from_env()
    fseed = fault_seed if fault_seed is not None else s.seed

    row_fn = partial(
        partition_row, s, component_counts, duration, drop, corrupt, fseed
    )
    rows = sweep(row_fn, len(component_counts), s.workers)
    return PartitionResult(
        settings=s, duration=duration, drop=drop, corrupt=corrupt, rows=rows
    )


# ----------------------------------------------------------------------
# Smoke mode (the verify.sh partition stage)
# ----------------------------------------------------------------------
def smoke(
    num_nodes: int = 64, seed: int = 7, corrupt_heal: bool = False
) -> str:
    """The acceptance scenario: partition, degrade, heal, balance books.

    Runs five rounds on a small ring under a plan that severs the ring
    into two components *mid-round* at round 1 (so a transfer can be
    caught in flight), heals at round 3, and drops 5% of protocol
    messages throughout.  Asserts:

    * degraded (per-component) rounds actually happened and every round
      conserved load globally, in-flight transfers included;
    * the heal reconciled exactly the suspended transfers
      (``suspended == commits + rollbacks``) and bumped the epoch twice
      (partitioned view, then reunified view);
    * a repeat run with identical seeds reproduces the byte-identical
      fault signature and per-round canonical digests.

    With ``corrupt_heal=True`` the membership manager's test hook drops
    one suspended transfer during reconciliation; the heal's
    conservation guard must then raise
    :class:`~repro.exceptions.ConservationError`, which this function
    deliberately does not catch — the caller (the CLI smoke stage)
    must exit non-zero.

    Returns a one-line summary for the verify log; raises
    ``AssertionError`` on any violation.
    """
    settings = ExperimentSettings(num_nodes=num_nodes, seed=seed)
    plan = FaultPlan(
        seed=3,
        drop=0.05,
        partitions=(
            PartitionSpec(
                at_round=1, duration=2, num_components=2, mid_round=True
            ),
        ),
    )

    def one_run() -> tuple[list[BalanceReport], str, list[str]]:
        balancer = build_ignorant_balancer(settings, faults=plan)
        if corrupt_heal:
            assert balancer.membership is not None
            balancer.membership.corrupt_heal = True
        reports = run_checked_rounds(balancer, ROUNDS_PER_POINT)
        digests = [r.canonical_digest() for r in reports]
        return reports, reports[-1].fault_stats.signature, digests

    first, sig1, digests1 = one_run()
    _, sig2, digests2 = one_run()

    fs = [r.fault_stats for r in first]
    degraded = sum(1 for s in fs if s.partition_components > 1)
    suspended = sum(s.suspended_transfers for s in fs)
    commits = sum(s.healed_commits for s in fs)
    rollbacks = sum(s.healed_rollbacks for s in fs)
    assert degraded >= 1, "no degraded rounds ran under the partition plan"
    assert fs[-1].epoch == 2, f"expected final epoch 2, got {fs[-1].epoch}"
    assert suspended == commits + rollbacks, (
        f"heal lost track of transfers: suspended={suspended} "
        f"commits={commits} rollbacks={rollbacks}"
    )
    assert sig1 == sig2, f"fault sequences diverged: {sig1} != {sig2}"
    assert digests1 == digests2, "round digests diverged across identical runs"

    return (
        f"partition smoke OK: nodes={num_nodes} degraded_rounds={degraded} "
        f"suspended={suspended} commits={commits} rollbacks={rollbacks} "
        f"regrafts={sum(s.regrafts for s in fs)} epoch={fs[-1].epoch} "
        f"signature={sig1[:12]} (reproduced)"
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.partition --smoke`` entry point."""
    parser = smoke_parser(
        "partition",
        "run the small fixed-seed acceptance scenario and assert "
        "conservation through partition and heal, plus reproducibility",
    )
    parser.add_argument(
        "--corrupt-heal",
        action="store_true",
        help="drop one suspended transfer during the heal; the "
        "conservation guard must abort the run (negative control)",
    )
    args = parser.parse_args(argv)
    print(
        smoke(
            num_nodes=args.nodes,
            seed=args.seed,
            corrupt_heal=args.corrupt_heal,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
