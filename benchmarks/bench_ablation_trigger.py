"""Ablation: periodic vs imbalance-triggered balancing under dynamics.

The paper runs its protocol "periodically at an interval T".  With an
explicit trigger policy the system can skip the heavyweight VSA/VST
phases when the LBI measurement (O(log_K N) rounds, O(N) messages)
shows the system is still balanced — fewer control messages and
transfers for the same worst-case imbalance bound.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.core import BalancerConfig, LoadBalancer
from repro.core.trigger import (
    ImbalanceTriggeredPolicy,
    PeriodicPolicy,
    run_with_policy,
)
from repro.sim import LoadDynamics
from repro.workloads import GaussianLoadModel, build_scenario


def make_balancer(settings):
    sc = build_scenario(
        GaussianLoadModel(mu=settings.mu, sigma=settings.sigma),
        num_nodes=settings.num_nodes,
        vs_per_node=settings.vs_per_node,
        rng=settings.seed,
    )
    return LoadBalancer(
        sc.ring,
        BalancerConfig(proximity_mode="ignorant", epsilon=settings.epsilon),
        rng=settings.balancer_seed,
    )


def test_ablation_trigger_policy(benchmark, settings, report_lines):
    def run_all():
        out = {}
        for name, policy in [
            ("periodic", PeriodicPolicy()),
            ("trigger-10%", ImbalanceTriggeredPolicy(0.10)),
            ("trigger-25%", ImbalanceTriggeredPolicy(0.25)),
        ]:
            trace = run_with_policy(
                make_balancer(settings),
                LoadDynamics(drift_sigma=0.05, rng=settings.seed + 1),
                policy,
                epochs=8,
            )
            out[name] = trace
        return out

    traces = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [f"  {'policy':>12} {'rounds run':>11} {'moved load':>12} "
             f"{'ctrl messages':>14} {'max heavy frac':>15}"]
    for name, t in traces.items():
        lines.append(
            f"  {name:>12} {t.rounds_run:>11} {t.total_moved:>12.4g} "
            f"{t.total_control_messages:>14} {100 * t.max_heavy_fraction:>14.1f}%"
        )
    emit(report_lines, "Ablation: balancing trigger policy", "\n".join(lines))

    periodic = traces["periodic"]
    loose = traces["trigger-25%"]
    assert loose.rounds_run < periodic.rounds_run
    assert loose.total_control_messages < periodic.total_control_messages
    # Triggered policies still bound the imbalance they tolerate.
    assert loose.max_heavy_fraction <= 0.95
