#!/usr/bin/env python
"""Benchmark-trend gate: compare a metrics dump against a baseline.

The repository records balancing-round cost metrics (message counts,
Dijkstra runs, dispatch counts, phase timings) through
:mod:`repro.obs`.  This script turns those dumps into a regression
gate:

``gen``
    Run the deterministic smoke workload — two serial balancing rounds,
    incremental rounds over churn, one partition lifecycle (mid-round
    split, degraded rounds, conservation-checked heal), a
    distance-oracle probe that exercises the batched LRU path, and
    three crash-recovery rounds (checkpoint + write-ahead journal, one
    injected process crash) — and write the merged metrics
    snapshot as JSON (default: ``benchmarks/BENCH_BASELINE.json``).
    Every counter and gauge in the workload is a pure function of the
    fixed seeds, so regenerating the file on an unchanged tree
    reproduces it bit-for-bit (timing histograms excepted).

``check``
    Compare a current metrics dump (a ``gen`` output, or any
    ``REPRO_OBS_OUT`` / ``--metrics-out`` dump holding the same
    instruments) against the checked-in baseline.  A counter or gauge
    more than ``--tolerance`` (default 20%) above its baseline value is
    a regression; histogram counts get the same bound and wall-clock
    ``*.seconds`` sums a generous floor (baseline x (1+tol) + 1s) since
    machines differ.  Exit status: 0 clean, 1 regression(s), 2 usage
    error.

``scripts/verify.sh`` wires both together: regenerate into a temp file
and check it against the committed baseline, failing the build if any
cost metric drifted up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_BASELINE.json"

#: Relative headroom allowed over the baseline before a metric fails.
DEFAULT_TOLERANCE = 0.20

#: Absolute slack (seconds) added on top of the relative headroom for
#: wall-clock histogram sums — CI machines are not benchmark machines.
SECONDS_FLOOR = 1.0


# ----------------------------------------------------------------------
# gen: the deterministic smoke workload
# ----------------------------------------------------------------------
def _smoke_snapshot() -> dict:
    """Run the smoke workload and return one merged metrics snapshot."""
    from repro.core.balancer import LoadBalancer
    from repro.core.config import BalancerConfig
    from repro.faults import FaultPlan, PartitionSpec
    from repro.obs import MetricsRegistry
    from repro.topology import DistanceOracle
    from repro.topology.transit_stub import TransitStubParams, generate_transit_stub
    from repro.workloads import GaussianLoadModel, build_scenario

    registry = MetricsRegistry()

    def scenario():
        return build_scenario(
            GaussianLoadModel(mu=1e6, sigma=2e3),
            num_nodes=256,
            vs_per_node=5,
            rng=42,
        )

    config = BalancerConfig(proximity_mode="ignorant", epsilon=0.05)

    # Two serial rounds, each on a fresh ring: LBI/VSA/VST message and
    # transfer counters (the committed baseline's totals include two
    # whole-ring rounds).
    for _ in range(2):
        serial = LoadBalancer(scenario().ring, config, rng=7, metrics=registry)
        serial.run_round()

    # Three incremental rounds over localized churn: pins the persistent
    # K-nary tree's repair economy (ktree.materialized / replanted /
    # pruned / grown) and the shared message counters.  A regression in
    # dirty-span resolution — say, repairing whole levels instead of
    # overlapped subtrees — shows up here as materialized/grown growth
    # long before it costs wall-clock anywhere.
    from repro.core.incremental import IncrementalLoadBalancer
    from repro.dht import join_node, leave_node
    from repro.util.rng import ensure_rng
    from repro.workloads import apply_load_drift

    inc_scenario = scenario()
    incremental = IncrementalLoadBalancer(
        inc_scenario.ring, config, rng=7, metrics=registry
    )
    churn_gen = ensure_rng(11)
    for _ in range(3):
        incremental.run_round()
        ring = inc_scenario.ring
        sites = []
        for _ in range(2):
            joined = join_node(
                ring, capacity=10.0, vs_count=3,
                rng=int(churn_gen.integers(1 << 30)),
            )
            sites.extend(vs.vs_id for vs in joined.virtual_servers)
        alive = [n for n in ring.alive_nodes if n.virtual_servers]
        leave_node(ring, alive[int(churn_gen.integers(len(alive)))])
        apply_load_drift(
            ring, GaussianLoadModel(mu=1e6, sigma=2e3),
            int(churn_gen.integers(1 << 30)), sites[:3], fraction=0.05,
        )
    incremental.run_round()

    # A steady-state stretch shaped like the 10^6 configuration of
    # bench_incremental_scaling (--million) at smoke scale: leaf
    # directory lookups plus batched descents over fractional churn.
    # Pins incremental.miss_descents (keys the directory could not
    # answer, resolved by descending), so a directory regression — say,
    # a patch that drops live leaves — surfaces as descent growth here
    # long before it costs wall-clock at a million nodes.
    steady_scenario = scenario()
    steady = IncrementalLoadBalancer(
        steady_scenario.ring, config, rng=7, metrics=registry
    )
    steady_gen = ensure_rng(19)
    for rnd in range(4):
        steady.run_round()
        if rnd == 3:
            break
        ring = steady_scenario.ring
        alive = [n for n in ring.alive_nodes if n.virtual_servers]
        joined = join_node(
            ring, capacity=10.0, vs_count=3,
            rng=int(steady_gen.integers(1 << 30)),
        )
        leave_node(ring, alive[int(steady_gen.integers(len(alive)))])
        apply_load_drift(
            ring, GaussianLoadModel(mu=1e6, sigma=2e3),
            int(steady_gen.integers(1 << 30)),
            [vs.vs_id for vs in joined.virtual_servers][:3],
            fraction=0.01,
        )

    # One partition lifecycle: a mid-round 2-way split, two degraded
    # per-component rounds and a conservation-checked heal.  Pins the
    # membership counters (partition/heal/regraft/quarantine) so a cost
    # regression in the degraded path — say, quarantining per phase
    # instead of per round — cannot land silently.
    plan = FaultPlan(
        seed=3,
        drop=0.05,
        corrupt=0.05,
        partitions=(
            PartitionSpec(
                at_round=1, duration=2, num_components=2, mid_round=True
            ),
        ),
    )
    partitioned = LoadBalancer(
        scenario().ring, config, rng=7, metrics=registry, faults=plan
    )
    for _ in range(4):
        partitioned.run_round()

    # Four defended rounds under an active Byzantine adversary: pins the
    # attack economy (adversary.actions and the per-behavior counters)
    # and the defense economy (trust.penalties / audit_failures /
    # envelope_breaches / quarantine / rejoin).  A cost regression here —
    # say, auditing every report instead of the seeded sample, or
    # re-quarantining an already-excluded node each round — shows up as
    # counter growth long before it distorts the byzantine sweep.
    from repro.adversary import AdversaryPlan

    adversary_plan = AdversaryPlan(seed=13, fraction=0.1, defense=True)
    defended = LoadBalancer(
        scenario().ring, config, rng=7, metrics=registry,
        adversary=adversary_plan,
    )
    for _ in range(4):
        defended.run_round()

    # Distance-oracle probe: a batched query larger than the LRU bound
    # plus a pair batch.  Guards the distances_from_many fix — the old
    # implementation thrashed its own cache here and ran extra
    # Dijkstras, which this gate would flag as a >20% regression.
    topology = generate_transit_stub(
        TransitStubParams(
            transit_domains=2,
            transit_nodes_per_domain=2,
            stub_domains_per_transit=2,
            stub_nodes_mean=6,
        ),
        rng=5,
    )
    oracle = DistanceOracle(topology, max_cached_rows=4)
    n = topology.num_vertices
    sources = [(3 * i) % n for i in range(12)]
    oracle.distances_from_many(sources)
    oracle.distances_between([(i, (i + 7) % n) for i in range(0, n, 5)])
    registry.gauge("routing.dijkstra_runs").set(oracle.dijkstra_runs)
    registry.gauge("routing.cached_sources").set(oracle.cached_sources)

    # Three recovery-managed rounds with one injected process crash:
    # pins the durability economy (checkpoints and write-ahead journal
    # records per round, restores per crash).  A regression here —
    # say, checkpointing per phase instead of per round, or journaling
    # records the replay matcher then double-writes — shows up as
    # recovery.checkpoints / recovery.journal_records growth.
    import shutil
    import tempfile

    from repro.faults import CrashPoint
    from repro.recovery import RecoveryManager

    recovery_plan = FaultPlan(
        seed=3,
        crash_points=(CrashPoint(at_round=1, site="mid-vst-batch"),),
    )

    def recovery_factory():
        return LoadBalancer(
            scenario().ring, config, rng=7, metrics=registry,
            faults=recovery_plan,
        )

    state_dir = tempfile.mkdtemp(prefix="repro-bench-trend-")
    try:
        manager = RecoveryManager(
            recovery_factory, state_dir=state_dir, metrics=registry
        )
        for _ in range(3):
            manager.run_round()
        manager.close()
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    return registry.snapshot()


def cmd_gen(args: argparse.Namespace) -> int:
    out = Path(args.out)
    snapshot = _smoke_snapshot()
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    counters = len(snapshot.get("counters", {}))
    gauges = len(snapshot.get("gauges", {}))
    print(f"wrote {out} ({counters} counters, {gauges} gauges)")
    return 0


# ----------------------------------------------------------------------
# check: baseline comparison
# ----------------------------------------------------------------------
def _load(path: Path, role: str) -> dict | None:
    if not path.is_file():
        print(f"error: {role} dump {path} does not exist", file=sys.stderr)
        return None
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"error: {role} dump {path} is not JSON: {exc}", file=sys.stderr)
        return None
    if not isinstance(data, dict):
        print(f"error: {role} dump {path} is not an object", file=sys.stderr)
        return None
    return data


def compare_snapshots(
    current: dict, baseline: dict, tolerance: float
) -> list[str]:
    """All regressions of ``current`` against ``baseline``, as messages.

    Counters, gauges and histogram counts fail when more than
    ``tolerance`` above baseline (with a +1 absolute grace so tiny
    integer counts don't trip on one extra unit); ``*.seconds``
    histogram sums additionally get :data:`SECONDS_FLOOR` of absolute
    slack.  Metrics present in the baseline but missing from the
    current dump fail too — silently dropping an instrument must not
    pass the gate.
    """
    problems: list[str] = []

    def check_value(kind: str, name: str, cur: float, base: float,
                    extra_slack: float = 1.0) -> None:
        allowed = base * (1.0 + tolerance) + extra_slack
        if cur > allowed:
            problems.append(
                f"{kind} {name}: {cur:.6g} exceeds baseline {base:.6g} "
                f"(+{tolerance:.0%} => allowed {allowed:.6g})"
            )

    for kind in ("counters", "gauges"):
        base_table = baseline.get(kind, {})
        cur_table = current.get(kind, {})
        for name, base_value in sorted(base_table.items()):
            if name not in cur_table:
                problems.append(f"{kind[:-1]} {name}: missing from current dump")
                continue
            check_value(kind[:-1], name, float(cur_table[name]),
                        float(base_value))

    base_hists = baseline.get("histograms", {})
    cur_hists = current.get("histograms", {})
    for name, base_summary in sorted(base_hists.items()):
        cur_summary = cur_hists.get(name)
        if cur_summary is None:
            problems.append(f"histogram {name}: missing from current dump")
            continue
        check_value(
            "histogram", f"{name}.count",
            float(cur_summary.get("count", 0)),
            float(base_summary.get("count", 0)),
        )
        if name.endswith(".seconds") or name.endswith("_seconds"):
            check_value(
                "histogram", f"{name}.sum",
                float(cur_summary.get("sum", 0.0)),
                float(base_summary.get("sum", 0.0)),
                extra_slack=SECONDS_FLOOR,
            )
    return problems


def cmd_check(args: argparse.Namespace) -> int:
    current = _load(Path(args.current), "current")
    baseline = _load(Path(args.baseline), "baseline")
    if current is None or baseline is None:
        return 2
    if args.tolerance < 0:
        print("error: tolerance must be >= 0", file=sys.stderr)
        return 2
    problems = compare_snapshots(current, baseline, args.tolerance)
    if problems:
        print(f"bench trend check FAILED ({len(problems)} regression(s)):")
        for p in problems:
            print(f"  {p}")
        return 1
    checked = sum(
        len(baseline.get(kind, {}))
        for kind in ("counters", "gauges", "histograms")
    )
    print(
        f"bench trend OK: {checked} instruments within "
        f"{args.tolerance:.0%} of {args.baseline}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="check_bench_trend.py",
        description="benchmark-trend regression gate over obs metrics dumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="run the smoke workload, write a dump")
    gen.add_argument("--out", default=str(DEFAULT_BASELINE),
                     help="output JSON path (default: the checked-in baseline)")
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="compare a dump against the baseline")
    check.add_argument("current", help="metrics dump to check")
    check.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                       help="baseline JSON (default: benchmarks/BENCH_BASELINE.json)")
    check.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="relative headroom before failing (default 0.20)")
    check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
