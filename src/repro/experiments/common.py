"""Shared experiment settings and helpers.

The paper's full scale (4096 nodes x 5 virtual servers, ~5000-vertex
topologies) runs in seconds; tests and quick benchmarks use reduced
sizes.  ``ExperimentSettings.paper()`` and ``.quick()`` capture both,
and ``from_env()`` lets ``REPRO_SCALE=paper`` switch the benchmark suite
to full scale.

:func:`build_ignorant_balancer` and :func:`run_checked_rounds` are the
one scenario + proximity-ignorant balancer setup and the one
conservation-checked round loop the identifier-space experiments
(figures 4-6, chaos, partition, byzantine) share.
"""

from __future__ import annotations

import argparse
import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import TypeVar

from repro.adversary import AdversaryPlan
from repro.constants import DEFAULT_NUM_NODES, DEFAULT_VS_PER_NODE
from repro.core.balancer import LoadBalancer
from repro.core.config import BalancerConfig
from repro.core.report import BalanceReport, check_conservation
from repro.faults import FaultPlan
from repro.parallel.trials import TrialExecutor
from repro.workloads.loads import GaussianLoadModel, LoadModel
from repro.workloads.scenario import build_scenario

_Row = TypeVar("_Row")


@dataclass(frozen=True, slots=True)
class ExperimentSettings:
    """Scale and seed knobs shared by all experiments."""

    num_nodes: int = DEFAULT_NUM_NODES
    vs_per_node: int = DEFAULT_VS_PER_NODE
    mu: float = 1e6
    sigma: float = 2e3
    epsilon: float = 0.05
    tree_degree: int = 2
    grid_bits: int = 4
    seed: int = 42
    balancer_seed: int = 5
    #: Worker processes for seed sweeps (variance/chaos); ``1`` keeps the
    #: historical serial code path.  Results are seed-determined either
    #: way — workers only changes wall-clock, never outputs.
    workers: int = 1

    @classmethod
    def paper(cls) -> "ExperimentSettings":
        """The paper's published scale."""
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """Reduced scale for CI and default benchmark runs."""
        return cls(num_nodes=512)

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        """``REPRO_SCALE=paper`` selects full scale; anything else quick.

        ``REPRO_SEED`` overrides the scenario seed and ``REPRO_WORKERS``
        the trial-engine worker count.
        """
        scale = os.environ.get("REPRO_SCALE", "quick").lower()
        base = cls.paper() if scale == "paper" else cls.quick()
        seed = os.environ.get("REPRO_SEED")
        if seed is not None:
            base = replace(base, seed=int(seed))
        workers = os.environ.get("REPRO_WORKERS")
        if workers is not None:
            base = replace(base, workers=int(workers))
        return base


def pct(x: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{100 * x:.1f}%"


def build_ignorant_balancer(
    settings: ExperimentSettings,
    load_model: LoadModel | None = None,
    *,
    faults: FaultPlan | None = None,
    adversary: AdversaryPlan | None = None,
) -> LoadBalancer:
    """The seeded scenario and a proximity-ignorant balancer over it.

    ``load_model`` defaults to the settings' Gaussian model; ``faults``
    and ``adversary`` pass straight through to the balancer.  Every
    call with the same arguments builds an identical ring, so sweep
    points that rebuild their own balancer all face one initial load
    distribution.
    """
    model = (
        load_model
        if load_model is not None
        else GaussianLoadModel(mu=settings.mu, sigma=settings.sigma)
    )
    scenario = build_scenario(
        model,
        num_nodes=settings.num_nodes,
        vs_per_node=settings.vs_per_node,
        rng=settings.seed,
    )
    return LoadBalancer(
        scenario.ring,
        BalancerConfig(
            proximity_mode="ignorant",
            epsilon=settings.epsilon,
            tree_degree=settings.tree_degree,
        ),
        rng=settings.balancer_seed,
        faults=faults,
        adversary=adversary,
    )


def run_checked_rounds(
    balancer: LoadBalancer, rounds: int = 1
) -> list[BalanceReport]:
    """Run consecutive rounds, conservation-checking every one.

    Faults, partitions and Byzantine lies distort what nodes see or
    claim, never what they hold, so true load is conserved round for
    round whatever the plan.
    """
    reports = []
    for _ in range(rounds):
        report = balancer.run_round()
        check_conservation(report)
        reports.append(report)
    return reports


def sweep(
    row_fn: Callable[[int], _Row], count: int, workers: int
) -> list[_Row]:
    """``[row_fn(0), ..., row_fn(count - 1)]``, fanned out when asked.

    With ``workers > 1`` the points run through
    :class:`repro.parallel.TrialExecutor` (``row_fn`` must then be
    picklable: a module-level function or a :func:`functools.partial`
    over one); each point is a pure function of its index, so the rows
    come out identical to the serial loop's.
    """
    if workers > 1:
        with TrialExecutor(workers=workers) as executor:
            return list(executor.map(row_fn, range(count)))
    return [row_fn(index) for index in range(count)]


def smoke_parser(experiment: str, smoke_help: str) -> argparse.ArgumentParser:
    """Parser for ``python -m repro.experiments.<experiment> --smoke``.

    The module entry points run only their small fixed-seed acceptance
    scenario; the sweep itself runs through ``repro-p2plb run
    <experiment>``.
    """
    parser = argparse.ArgumentParser(
        prog=f"repro.experiments.{experiment}",
        description=f"{experiment} smoke for the load balancer (the "
        f"sweep runs through `repro-p2plb run {experiment}`)",
    )
    parser.add_argument(
        "--smoke", action="store_true", required=True, help=smoke_help
    )
    parser.add_argument("--nodes", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    return parser
