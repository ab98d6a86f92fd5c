"""Byzantine robustness: lying nodes vs the trusted-aggregation defense.

Each sweep point runs several consecutive balancing rounds over the
*same* Gaussian scenario under an
:class:`~repro.adversary.AdversaryPlan` that drafts a fraction ``f`` of
the nodes as attackers (load under/over-reporters, capacity inflators,
report oscillators, transfer renegers, false accusers), once with the
trusted-aggregation defense off and once with it on.  The interesting
output is *damage*, measured against ground truth the protocol never
sees:

* ``honest_heavy_end`` — honest nodes still heavy (true load above
  ``(1 + eps)`` times their fair target computed from true totals)
  after the last round: attackers distort the aggregate and soak up or
  repel transfers, so honest overload persists;
* ``damage`` — the *honest excess load*: the total true load honest
  nodes carry above their ``(1 + eps)`` fair targets at the end.  A
  magnitude, not a count, so a ring left 3% over fair (the bounded
  price of quarantining attacker capacity) scores far below one left
  with a few nodes at several times their target (what unchecked lies
  produce).

The sweep runs through ``repro-p2plb run byzantine``.  ``python -m
repro.experiments.byzantine --smoke`` runs the acceptance scenario and
asserts the defense strictly reduces damage at ``f=10%``, that ``f=0``
with the defense armed is digest-identical to a run with no plan at
all (the zero-overhead-when-clean contract), and that a repeat run
reproduces the byte-identical attack signature and per-round digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.adversary import AdversaryPlan
from repro.core.balancer import LoadBalancer
from repro.experiments.common import (
    ExperimentSettings,
    build_ignorant_balancer,
    run_checked_rounds,
    smoke_parser,
    sweep,
)

#: Attacker fractions swept by default (the paper-style 0..20% range).
DEFAULT_FRACTIONS: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10, 0.20)

#: Rounds each sweep point runs: enough for the trust scores to cross
#: the quarantine threshold and the re-tiled ring to re-balance.
ROUNDS_PER_POINT = 6


@dataclass(frozen=True)
class ByzantineRow:
    """One sweep point: attacker fraction x defense arming."""

    fraction: float
    defense: bool
    attackers: int
    lies: int
    reneged: int
    suppressed: int
    accusations: int
    refuted: int
    audits_failed: int
    quarantined_end: int
    honest_heavy_end: int
    damage: float
    transfers: int
    moved_load: float
    signature: str
    final_digest: str


@dataclass(frozen=True)
class ByzantineResult:
    settings: ExperimentSettings
    rows: list[ByzantineRow]

    def format_rows(self) -> str:
        lines = [
            "Byzantine sweep - attacker fraction x defense vs damage "
            f"(rounds={ROUNDS_PER_POINT}, nodes={self.settings.num_nodes})",
            f"  {'f':>5} {'def':>3} {'atk':>4} {'lies':>5} {'reneg':>6} "
            f"{'suppr':>6} {'refut':>6} {'audit!':>7} {'quar':>5} "
            f"{'honest-heavy':>13} {'damage':>7} {'xfers':>6}",
        ]
        for r in self.rows:
            lines.append(
                f"  {r.fraction:>5.2f} {'on' if r.defense else 'off':>3} "
                f"{r.attackers:>4} {r.lies:>5} {r.reneged:>6} "
                f"{r.suppressed:>6} {r.refuted:>6} {r.audits_failed:>7} "
                f"{r.quarantined_end:>5} {r.honest_heavy_end:>13} "
                f"{r.damage:>10.1f} {r.transfers:>6}"
            )
        lines.append(
            "  [damage = honest excess load: true load honest nodes carry "
            "above their (1+eps) fair targets at the end]"
        )
        return "\n".join(lines)


def _honest_damage(
    balancer: LoadBalancer, epsilon: float, attackers: frozenset[int]
) -> tuple[int, float]:
    """``(heavy count, excess load)`` over honest nodes, by *true* state.

    The ground-truth damage measure: fair targets are computed from the
    true totals (which the protocol under attack never sees), so a lie
    that leaves honest nodes overloaded is charged here even when the
    lied-to classification called them fine.
    """
    alive = balancer.ring.alive_nodes
    total_load = float(sum(n.load for n in alive))
    total_capacity = float(sum(n.capacity for n in alive))
    if total_capacity <= 0:
        return 0, 0.0
    heavy = 0
    excess = 0.0
    for node in alive:
        if node.index in attackers:
            continue
        bound = (1.0 + epsilon) * node.capacity * total_load / total_capacity
        if node.load > bound:
            heavy += 1
            excess += node.load - bound
    return heavy, excess


def byzantine_row(
    settings: ExperimentSettings,
    points: tuple[tuple[float, bool], ...],
    adversary_seed: int,
    point_index: int,
) -> ByzantineRow:
    """One sweep point: ``(fraction, defense) = points[point_index]``.

    Module-level and keyed by an integer index so the parallel trial
    engine can ship it to workers via :func:`functools.partial`; a pure
    function of its arguments either way, so serial and parallel sweeps
    produce identical rows.
    """
    fraction, defense = points[point_index]
    plan = AdversaryPlan(
        seed=adversary_seed, fraction=fraction, defense=defense
    )
    balancer = build_ignorant_balancer(settings, adversary=plan)
    reports = run_checked_rounds(balancer, ROUNDS_PER_POINT)
    advs = [r.adversary_stats for r in reports]
    attackers = (
        frozenset(balancer.adversary.attacker_indices)
        if balancer.adversary is not None
        else frozenset()
    )
    honest_heavy, excess = _honest_damage(
        balancer, settings.epsilon, attackers
    )
    return ByzantineRow(
        fraction=fraction,
        defense=defense,
        attackers=advs[-1].attackers,
        lies=sum(a.lies_total for a in advs),
        reneged=sum(a.reneged_transfers for a in advs),
        suppressed=sum(a.reports_suppressed for a in advs),
        accusations=sum(a.accusations for a in advs),
        refuted=sum(a.accusations_refuted for a in advs),
        audits_failed=sum(a.audits_failed for a in advs),
        quarantined_end=len(advs[-1].quarantined),
        honest_heavy_end=honest_heavy,
        damage=excess,
        transfers=sum(len(r.transfers) for r in reports),
        moved_load=float(sum(r.moved_load for r in reports)),
        signature=advs[-1].signature,
        final_digest=reports[-1].canonical_digest(),
    )


def run(
    settings: ExperimentSettings | None = None,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    adversary_seed: int | None = None,
) -> ByzantineResult:
    """Sweep attacker fractions x defense against one fixed scenario.

    The scenario seed is held constant across the sweep so every row
    faces the identical initial load distribution; only the adversary
    changes.  ``adversary_seed`` defaults to the scenario seed, keeping
    the whole sweep a pure function of the settings.  With
    ``settings.workers > 1`` the sweep points run in parallel through
    :class:`repro.parallel.TrialExecutor` (each point rebuilds its own
    scenario, so rows come out identical to a serial sweep's).
    """
    s = settings if settings is not None else ExperimentSettings.from_env()
    aseed = adversary_seed if adversary_seed is not None else s.seed
    points = tuple(
        (fraction, defense)
        for fraction in fractions
        for defense in (False, True)
    )
    row_fn = partial(byzantine_row, s, points, aseed)
    rows = sweep(row_fn, len(points), s.workers)
    return ByzantineResult(settings=s, rows=rows)


# ----------------------------------------------------------------------
# Smoke mode (the verify.sh byzantine stage)
# ----------------------------------------------------------------------
def smoke(num_nodes: int = 64, seed: int = 7) -> str:
    """The acceptance scenario: lies mounted, damage bounded, books clean.

    Runs six rounds on a small ring at ``f=10%`` attackers with the
    defense off and on (identical adversary seed, so both runs face the
    same drafted attacker set and the same lies), plus the two control
    runs.  Asserts:

    * attackers actually acted (lies and a non-empty attack signature)
      and every round conserved true load;
    * the defense quarantined at least one attacker and strictly
      reduced composite damage versus the undefended run;
    * ``f=0`` with the defense armed produces per-round canonical
      digests byte-identical to a run with no adversary plan at all
      (zero overhead when clean);
    * a repeat defended run reproduces the byte-identical attack
      signature and per-round digests.

    Returns a one-line summary for the verify log; raises
    ``AssertionError`` on any violation.
    """
    settings = ExperimentSettings(num_nodes=num_nodes, seed=seed)
    points = ((0.10, False), (0.10, True))

    off = byzantine_row(settings, points, seed, 0)
    on = byzantine_row(settings, points, seed, 1)
    on_repeat = byzantine_row(settings, points, seed, 1)

    assert off.lies > 0 and off.signature, (
        "the undefended adversary never acted; the scenario is too small"
    )
    assert on.quarantined_end > 0, "defense never quarantined an attacker"
    assert off.damage > 0, (
        "the undefended adversary left no honest excess load; the "
        "scenario cannot discriminate the defense"
    )
    assert on.damage < off.damage, (
        f"defense did not reduce damage: defended={on.damage:.1f} "
        f"undefended={off.damage:.1f}"
    )
    assert on.signature == on_repeat.signature, (
        f"attack sequences diverged: {on.signature} != {on_repeat.signature}"
    )
    assert on.final_digest == on_repeat.final_digest, (
        "round digests diverged across identical defended runs"
    )

    clean = build_ignorant_balancer(settings)
    clean_digests = [
        r.canonical_digest()
        for r in run_checked_rounds(clean, ROUNDS_PER_POINT)
    ]
    armed = build_ignorant_balancer(
        settings,
        adversary=AdversaryPlan(seed=seed, fraction=0.0, defense=True),
    )
    armed_digests = [
        r.canonical_digest()
        for r in run_checked_rounds(armed, ROUNDS_PER_POINT)
    ]
    assert clean_digests == armed_digests, (
        "f=0 with defense armed diverged from the no-plan run "
        "(zero-overhead-when-clean violated)"
    )

    return (
        f"byzantine smoke OK: nodes={num_nodes} f=0.10 "
        f"attackers={off.attackers} lies(off)={off.lies} "
        f"damage off={off.damage:.1f} -> on={on.damage:.1f} "
        f"quarantined={on.quarantined_end} refuted={on.refuted} "
        f"clean-run digests identical, signature={on.signature[:12]} "
        f"(reproduced)"
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.byzantine --smoke`` entry point."""
    args = smoke_parser(
        "byzantine",
        "run the small fixed-seed acceptance scenario and assert the "
        "defense reduces damage plus the zero-overhead and "
        "reproducibility contracts",
    ).parse_args(argv)
    print(smoke(num_nodes=args.nodes, seed=args.seed))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
