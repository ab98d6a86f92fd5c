"""Benchmark: persistent-tree balancer scaling under churn-localized drift.

Drives the object-walk reference
:class:`repro.core.reference.SerialLoadBalancer` and the persistent-tree
:class:`repro.core.LoadBalancer` through the same schedule —
balancing rounds separated by 1% membership churn (half joins, half
leaves) with load drift localized at the join sites — and measures the
steady-state LBI+VSA speedup.  Digest identity is asserted on **every**
round before any timing is believed: the engines must agree byte for
byte or the numbers are meaningless.

Two protocol rules, learned the hard way (see ``docs/performance.md``):

* The engines never interleave inside one timing loop.  The serial
  engine's per-round object churn triggers gen-2 GC passes that would
  traverse the incremental engine's persistent tree, inflating its
  numbers with pure GC cross-talk.  Each engine runs the whole schedule
  back to back on its own ring replica (identical seeds make the churn
  schedules — and hence the digests — comparable round for round), with
  a collection in between.
* Warm-up rounds are excluded from the speedup.  Round 0 is a rebuild
  and the first rounds still pay leaf-directory misses; the reported
  ratio is over the tail, which is what a long-running churn study
  actually sees.

Two kernel sets run the schedule: the serial reference and the
incremental one (leaf directory lookups + batched level-synchronous
descents over the persistent tree).  They must agree byte for byte; the
gate is the serial vs incremental LBI+VSA speedup.

The ``--million`` configuration drives the incremental engine alone
through a 10^6-node steady-state schedule (no serial twin — the twin
run would dominate the bench by an hour) and gates the post-warm-up
wall-clock per round instead; digest identity at that scale is covered
by the property suites at smaller rings plus the smoke run here.

Under ``pytest`` the bench runs at a reduced scale (suite-budget
friendly) with a conservative speedup floor; ``REPRO_SCALE=paper``
raises the ring to 10^5 nodes and the floor to the acceptance target.
Standalone::

    PYTHONPATH=src python -m benchmarks.bench_incremental_scaling
    PYTHONPATH=src python -m benchmarks.bench_incremental_scaling --million
    PYTHONPATH=src python -m benchmarks.bench_incremental_scaling --smoke
"""

from __future__ import annotations

import argparse
import gc
import time

import numpy as np

from repro.core import BalancerConfig, LoadBalancer
from repro.core.reference import SerialLoadBalancer
from repro.dht import join_node, leave_node
from repro.experiments.common import ExperimentSettings
from repro.obs.runtime import current_metrics
from repro.util.rng import ensure_rng
from repro.workloads import ParetoLoadModel, apply_load_drift, build_scenario

#: Fraction of alive nodes churned (joined + left) between rounds.
CHURN_FRACTION = 0.01

#: Rounds excluded from the steady-state speedup (rebuild + cache warm-up).
WARMUP_ROUNDS = 2

#: Reduced scale for the default pytest run.
QUICK_NODES = 4096
QUICK_ROUNDS = 5

#: Paper-scale run (``REPRO_SCALE=paper``): the ISSUE acceptance regime.
PAPER_NODES = 100_000
PAPER_ROUNDS = 10

#: Steady-state LBI+VSA speedup floors (serial seconds / incremental
#: seconds over the post-warm-up rounds).  Calibrated from measured
#: runs with ~2x headroom below the observed ratio so machine variance
#: does not flake the gate; the bench-trend baseline ratchets the
#: incremental engine's absolute costs separately.  At paper scale the
#: measured ratio is ~4-5x over the ten-round schedule (the first
#: post-warm-up rounds still pay leaf-directory misses) and >6x on the
#: fully warm tail rounds; both engines share the descent and
#: shed-selection primitives, so optimizing those speeds the serial
#: baseline up too and the honest ratio moves less than the absolute
#: incremental round time does.
QUICK_TARGET_SPEEDUP = 1.9
PAPER_TARGET_SPEEDUP = 2.5

#: The 10^6 steady-state configuration (``--million``): incremental engine
#: only, wall-clock ceiling on the post-warm-up rounds.  The ceiling is
#: calibrated from measured runs with generous headroom (CI machines
#: vary); the bench-trend baseline ratchets the deterministic counter
#: economy separately.
MILLION_NODES = 1_000_000
MILLION_ROUNDS = 5
MILLION_ROUND_CEILING_SECONDS = 60.0

VS_PER_NODE = 5
MU = 1e6
SCENARIO_SEED = 1
BALANCER_SEED = 2
CHURN_SEED = 7


def apply_churn(ring, model: ParetoLoadModel, gen: np.random.Generator) -> None:
    """One churn step: 1% membership turnover + drift at the join sites.

    Everything is drawn from ``gen``, so two structurally identical
    rings fed generators with the same seed receive identical event
    sequences — the property that keeps the two engines' digests
    comparable round for round.
    """
    alive = [n for n in ring.alive_nodes if n.virtual_servers]
    events = max(2, int(CHURN_FRACTION * len(alive)))
    joins = events // 2
    sites: list[int] = []
    for _ in range(joins):
        node = join_node(
            ring, capacity=10.0, vs_count=3, rng=int(gen.integers(1 << 30))
        )
        sites.extend(vs.vs_id for vs in node.virtual_servers)
    alive = [n for n in ring.alive_nodes if n.virtual_servers]
    picks = gen.choice(len(alive), size=events - joins, replace=False)
    for i in picks:
        leave_node(ring, alive[int(i)])
    apply_load_drift(
        ring,
        model,
        int(gen.integers(1 << 30)),
        sites[: max(3, len(sites) // 10)],
        fraction=0.01,
    )


def _make_balancer(engine: str, ring) -> LoadBalancer:
    config = BalancerConfig(proximity_mode="ignorant", epsilon=0.05)
    if engine == "serial":
        return SerialLoadBalancer(ring, config, rng=BALANCER_SEED)
    if engine == "incremental":
        return LoadBalancer(ring, config, rng=BALANCER_SEED)
    raise ValueError(f"unknown engine {engine!r}")


def run_engine(
    engine: str, num_nodes: int, rounds: int
) -> tuple[list[str], list[dict[str, float]], dict[str, int]]:
    """Run one engine over the deterministic schedule, from scratch.

    ``engine`` is ``"serial"`` (the reference) or ``"incremental"``
    (:class:`LoadBalancer`).  Returns per-round digests, phase timings,
    and the engine's cumulative descent-economy stats (zero for the
    reference).  After the last round the incremental engine's tree
    must pass :meth:`~repro.ktree.tree.KnaryTree.check_invariants`,
    slot columns included.  Building the ring inside this function (rather
    than sharing replicas) keeps each engine's heap private — see the
    GC note in the module docstring.
    """
    model = ParetoLoadModel(mu=MU)
    ring = build_scenario(
        model, num_nodes=num_nodes, vs_per_node=VS_PER_NODE, rng=SCENARIO_SEED
    ).ring
    balancer = _make_balancer(engine, ring)
    gen = ensure_rng(CHURN_SEED)
    digests: list[str] = []
    timings: list[dict[str, float]] = []
    for rnd in range(rounds):
        report = balancer.run_round()
        digests.append(report.canonical_digest())
        timings.append(dict(report.phase_seconds))
        if rnd < rounds - 1:
            apply_churn(ring, model, gen)
    if engine == "incremental":
        # The persistent tree's node graph and slot columns still agree
        # after the whole churn schedule.
        assert balancer._tree is not None
        balancer._tree.check_invariants()
    stats = dict(getattr(balancer, "descent_stats", {}))
    return digests, timings, stats


def _steady(times: list[dict[str, float]], phase: str) -> float:
    return sum(t.get(phase, 0.0) for t in times[WARMUP_ROUNDS:])


def run_incremental_scaling(
    num_nodes: int, rounds: int
) -> dict[str, float]:
    """Both engines over the same schedule; digest check + speedup.

    The serial-vs-incremental LBI+VSA ratio is the scaling headline;
    the incremental engine's descent economy is reported alongside.
    """
    assert rounds > WARMUP_ROUNDS, "need post-warm-up rounds to measure"
    t0 = time.perf_counter()
    serial_digests, serial_times, _ = run_engine("serial", num_nodes, rounds)
    serial_wall = time.perf_counter() - t0
    gc.collect()

    t0 = time.perf_counter()
    inc_digests, inc_times, inc_stats = run_engine(
        "incremental", num_nodes, rounds
    )
    inc_wall = time.perf_counter() - t0

    assert serial_digests == inc_digests, (
        "serial/incremental divergence: first differing round "
        f"{next(i for i, (a, b) in enumerate(zip(serial_digests, inc_digests)) if a != b)}"
    )

    serial_lbi = _steady(serial_times, "lbi")
    serial_vsa = _steady(serial_times, "vsa")
    inc_lbi = _steady(inc_times, "lbi")
    inc_vsa = _steady(inc_times, "vsa")
    denom = inc_lbi + inc_vsa
    summary = {
        "nodes": float(num_nodes),
        "rounds": float(rounds),
        "serial_lbi_seconds": serial_lbi,
        "serial_vsa_seconds": serial_vsa,
        "incremental_lbi_seconds": inc_lbi,
        "incremental_vsa_seconds": inc_vsa,
        "serial_wall_seconds": serial_wall,
        "incremental_wall_seconds": inc_wall,
        "lbi_speedup": serial_lbi / inc_lbi if inc_lbi > 0 else 0.0,
        "speedup": (serial_lbi + serial_vsa) / denom if denom > 0 else 0.0,
        "miss_descents": float(inc_stats.get("miss_descents", 0)),
    }
    metrics = current_metrics()
    if metrics is not None:
        for name, value in summary.items():
            metrics.gauge(f"incremental.bench.{name}").set(value)
    return summary


def run_million_steady(
    num_nodes: int = MILLION_NODES, rounds: int = MILLION_ROUNDS
) -> dict[str, float]:
    """Incremental engine alone through a steady-state churn schedule.

    Measures the post-warm-up wall-clock per round at ``num_nodes`` —
    the regime the serial twin cannot reach in bench time.  Correctness
    at this scale rides on the invariants the property suites pin at
    smaller rings (digest identity, key-to-leaf resolution); that the
    batched descents ran at all (counted) is asserted here.
    """
    assert rounds > WARMUP_ROUNDS, "need post-warm-up rounds to measure"
    model = ParetoLoadModel(mu=MU)
    ring = build_scenario(
        model, num_nodes=num_nodes, vs_per_node=VS_PER_NODE, rng=SCENARIO_SEED
    ).ring
    balancer = _make_balancer("incremental", ring)
    gen = ensure_rng(CHURN_SEED)
    round_walls: list[float] = []
    for rnd in range(rounds):
        t0 = time.perf_counter()
        balancer.run_round()
        round_walls.append(time.perf_counter() - t0)
        if rnd < rounds - 1:
            apply_churn(ring, model, gen)
    stats = dict(getattr(balancer, "descent_stats", {}))
    # Zero would mean no key ever missed the leaf directory: the run
    # never exercised the batched descent it is meant to measure.
    assert stats.get("miss_descents", 0) > 0, (
        f"no batched descent ran: {stats}"
    )
    steady_walls = round_walls[WARMUP_ROUNDS:]
    summary = {
        "nodes": float(num_nodes),
        "rounds": float(rounds),
        "build_round_seconds": round_walls[0],
        "steady_round_seconds": max(steady_walls),
        "mean_steady_round_seconds": sum(steady_walls) / len(steady_walls),
        "miss_descents": float(stats.get("miss_descents", 0)),
    }
    metrics = current_metrics()
    if metrics is not None:
        for name, value in summary.items():
            metrics.gauge(f"incremental.million.{name}").set(value)
    return summary


def format_summary(summary: dict[str, float], target: float) -> str:
    """Human-readable timing table plus the gating verdicts."""
    rounds = int(summary["rounds"])
    measured = rounds - WARMUP_ROUNDS
    return "\n".join(
        [
            (
                "Incremental engine scaling - "
                f"{int(summary['nodes'])} nodes, {rounds} rounds "
                f"({CHURN_FRACTION:.0%} churn/round, digests verified)"
            ),
            (
                f"  serial      lbi+vsa: {summary['serial_lbi_seconds']:>8.2f}s"
                f" + {summary['serial_vsa_seconds']:.2f}s over last {measured} rounds"
            ),
            (
                f"  incremental lbi+vsa: {summary['incremental_lbi_seconds']:>8.2f}s"
                f" + {summary['incremental_vsa_seconds']:.2f}s"
            ),
            f"  lbi speedup:         {summary['lbi_speedup']:>8.2f}x",
            f"  lbi+vsa speedup:     {summary['speedup']:>8.2f}x (floor {target}x)",
            f"  miss descents:       {int(summary['miss_descents']):>8d}",
        ]
    )


def format_million_summary(summary: dict[str, float], ceiling: float) -> str:
    """Human-readable table for the 10^6 steady-state configuration."""
    return "\n".join(
        [
            (
                "Million-node steady state - "
                f"{int(summary['nodes'])} nodes, {int(summary['rounds'])} rounds "
                f"({CHURN_FRACTION:.0%} churn/round, incremental engine)"
            ),
            f"  build round:         {summary['build_round_seconds']:>8.2f}s",
            (
                f"  steady round (max):  {summary['steady_round_seconds']:>8.2f}s"
                f" (ceiling {ceiling}s)"
            ),
            f"  steady round (mean): {summary['mean_steady_round_seconds']:>8.2f}s",
            f"  descent economy:     {int(summary['miss_descents'])} descents",
        ]
    )


def _scale_params(settings: ExperimentSettings) -> tuple[int, int, float]:
    """(nodes, rounds, speedup floor) for REPRO_SCALE."""
    if settings.num_nodes >= ExperimentSettings.paper().num_nodes:
        return PAPER_NODES, PAPER_ROUNDS, PAPER_TARGET_SPEEDUP
    return QUICK_NODES, QUICK_ROUNDS, QUICK_TARGET_SPEEDUP


def test_incremental_scaling(settings, report_lines):
    from benchmarks.conftest import emit

    nodes, rounds, target = _scale_params(settings)
    summary = run_incremental_scaling(nodes, rounds)
    emit(
        report_lines,
        "Incremental scaling (churn-localized drift)",
        format_summary(summary, target),
    )
    assert summary["speedup"] >= target, (
        f"steady-state lbi+vsa speedup {summary['speedup']:.2f}x below "
        f"floor {target}x at {nodes} nodes"
    )


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point: print the table, return 0 on pass."""
    parser = argparse.ArgumentParser(
        description="incremental vs serial engine scaling benchmark"
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="ring size (default: from REPRO_SCALE)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help=f"balancing rounds (> {WARMUP_ROUNDS}; default: from REPRO_SCALE)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny deterministic run (digest identity + plumbing only)",
    )
    parser.add_argument(
        "--million", action="store_true",
        help=(
            "10^6-node steady-state configuration (incremental engine only, "
            "wall-clock ceiling gate); with --smoke or --nodes runs the "
            "same code path at reduced scale"
        ),
    )
    args = parser.parse_args(argv)
    if args.million:
        if args.smoke:
            nodes, rounds, ceiling = 2048, 4, 0.0
        else:
            nodes, rounds = MILLION_NODES, MILLION_ROUNDS
            ceiling = MILLION_ROUND_CEILING_SECONDS
        if args.nodes is not None:
            nodes, ceiling = args.nodes, 0.0
        if args.rounds is not None:
            rounds = args.rounds
        summary = run_million_steady(nodes, rounds)
        print(format_million_summary(summary, ceiling))
        if args.smoke:
            print("smoke OK: steady-state plumbing, batched descents ran")
        if ceiling and summary["steady_round_seconds"] > ceiling:
            return 1
        return 0
    if args.smoke:
        nodes, rounds, target = 512, 4, 0.0
    else:
        nodes, rounds, target = _scale_params(ExperimentSettings.from_env())
    if args.nodes is not None:
        nodes, target = args.nodes, 0.0
    if args.rounds is not None:
        rounds = args.rounds
    summary = run_incremental_scaling(nodes, rounds)
    print(format_summary(summary, target))
    if args.smoke:
        # Smoke still gates digest identity (asserted in
        # run_incremental_scaling).
        print("smoke OK: digests identical on all rounds")
        return 0
    if summary["speedup"] < target:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
