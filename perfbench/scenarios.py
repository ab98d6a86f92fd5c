"""The benchmark's three workloads: scenario, engine and per-step schedule.

Every input is a pure function of the workload seed, so two runs with
the same seed drive the engine through byte-identical rounds.  The seed
is split into independent streams (scenario, balancer, schedule, faults,
adversary) with :class:`numpy.random.SeedSequence`; the program under
test only ever receives the generated inputs.

A workload builds an :class:`Instance` (ring + engine + schedule state)
and advances it with :meth:`Instance.step` between rounds.  The engine
class is a parameter so the same schedule can be replayed through the
serial :class:`~repro.core.LoadBalancer` for the digest cross-check.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.adversary import AdversaryPlan
from repro.core import BalancerConfig, IncrementalLoadBalancer, LoadBalancer
from repro.dht import join_node, leave_node
from repro.faults import FaultPlan, PartitionSpec
from repro.recovery import TransferJournal
from repro.topology.transit_stub import TS5K_LARGE, generate_transit_stub
from repro.util.rng import ensure_rng
from repro.workloads import ParetoLoadModel, apply_load_drift, build_scenario

#: Pareto load model shared by every workload (alpha 1.5, mean 10^6).
MU = 1e6
ALPHA = 1.5
VS_PER_NODE = 5
EPSILON = 0.05
TREE_DEGREE = 2

#: Fraction of alive nodes churned (half joins, half leaves) per step.
CHURN_FRACTION = 0.01

#: paper-aware: ts5k-large is one fixed graph, as in the paper's
#: experiments; the workload seed varies ring placement, sites, loads and
#: schedule, not the graph, so runs with different seeds time the same
#: Dijkstra problem sizes.
TOPOLOGY_SEED = 0

#: paper-aware: seeded 1% load-redraw windows per step.
DRIFT_WINDOWS = 8
DRIFT_FRACTION = 0.01

#: everything-on: partitions strike every PARTITION_EVERY rounds and last
#: PARTITION_ROUNDS rounds; the plan covers PARTITION_HORIZON rounds,
#: more than any run reaches.
PARTITION_EVERY = 8
PARTITION_ROUNDS = 2
PARTITION_HORIZON = 4096


@dataclass(frozen=True)
class Seeds:
    """Independent integer seeds derived from the one workload seed."""

    scenario: int
    balancer: int
    schedule: int
    faults: int
    adversary: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        words = np.random.SeedSequence(seed).generate_state(5, dtype=np.uint32)
        return cls(*(int(w) for w in words))


def churn_step(ring, model: ParetoLoadModel, gen: np.random.Generator) -> int:
    """1% membership churn (half joins, half leaves) + drift at join sites.

    The same schedule as ``benchmarks/bench_incremental_scaling.py``.
    Returns the number of ring events (virtual servers added + removed).
    """
    alive = [n for n in ring.alive_nodes if n.virtual_servers]
    events = max(2, int(CHURN_FRACTION * len(alive)))
    joins = events // 2
    sites: list[int] = []
    ring_events = 0
    for _ in range(joins):
        node = join_node(
            ring, capacity=10.0, vs_count=3, rng=int(gen.integers(1 << 30))
        )
        sites.extend(vs.vs_id for vs in node.virtual_servers)
        ring_events += len(node.virtual_servers)
    alive = [n for n in ring.alive_nodes if n.virtual_servers]
    picks = gen.choice(len(alive), size=events - joins, replace=False)
    for i in picks:
        ring_events += len(alive[int(i)].virtual_servers)
        leave_node(ring, alive[int(i)])
    apply_load_drift(
        ring,
        model,
        int(gen.integers(1 << 30)),
        sites[: max(3, len(sites) // 10)],
        fraction=0.01,
    )
    return ring_events


def drift_step(ring, model: ParetoLoadModel, gen: np.random.Generator) -> int:
    """Redraw loads in DRIFT_WINDOWS seeded 1% windows; no membership change."""
    centers = [int(c) for c in gen.integers(0, ring.space.size, DRIFT_WINDOWS)]
    apply_load_drift(
        ring, model, int(gen.integers(1 << 30)), centers, fraction=DRIFT_FRACTION
    )
    return 0


@dataclass
class Instance:
    """One built scenario + engine, advanced between rounds by ``step``."""

    ring: object
    balancer: LoadBalancer
    model: ParetoLoadModel
    schedule: np.random.Generator
    stepper: Callable[..., int]
    journal: TransferJournal | None = None
    journal_dir: Path | None = None
    topology: object = None
    oracle: object = None

    def step(self) -> int:
        """Apply one schedule step; returns the ring events it caused."""
        return self.stepper(self.ring, self.model, self.schedule)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)
            self.journal_dir = None


@dataclass(frozen=True)
class Workload:
    """A named workload: scale, schedule and which robustness features run.

    ``warmup`` rounds after the cold round are excluded from timing
    (caches still filling); ``timed`` is the fixed number of timed rounds
    over which the deterministic metrics and the digest chain are taken;
    ``setups`` is how many times the scenario is built and its cold round
    run (``setup_s`` is their median); ``crosscheck`` is how many leading
    rounds are replayed through the serial engine.
    """

    name: str
    nodes: int
    warmup: int
    timed: int
    setups: int
    stepper: Callable[..., int]
    proximity: bool = False
    robust: bool = False
    crosscheck: int = 3

    def build(
        self,
        seed: int,
        state_dir: Path,
        engine: type[LoadBalancer] = IncrementalLoadBalancer,
        topology: object = None,
        oracle: object = None,
        tag: str = "main",
    ) -> Instance:
        """Scenario + engine for ``seed`` (no round run yet).

        ``topology`` and ``oracle`` reuse an already generated
        transit-stub graph and its warm distance oracle (the cross-check
        replay); the graph is fixed and distances are pure, so the
        scenario and every digest are identical either way.
        """
        seeds = Seeds.derive(seed)
        model = ParetoLoadModel(mu=MU, alpha=ALPHA)
        if self.proximity and topology is None:
            topology = generate_transit_stub(TS5K_LARGE, TOPOLOGY_SEED)
        scenario = build_scenario(
            model,
            num_nodes=self.nodes,
            vs_per_node=VS_PER_NODE,
            topology=topology if self.proximity else None,
            rng=seeds.scenario,
        )
        config = BalancerConfig(
            proximity_mode="aware" if self.proximity else "ignorant",
            epsilon=EPSILON,
            tree_degree=TREE_DEGREE,
            grid_bits=4,
            num_landmarks=15,
        )
        balancer_kwargs: dict[str, object] = {}
        if self.proximity:
            balancer_kwargs.update(
                topology=scenario.topology,
                oracle=oracle if oracle is not None else scenario.oracle,
            )
        if self.robust:
            balancer_kwargs["faults"] = FaultPlan(
                seed=seeds.faults,
                drop=0.02,
                transfer_abort=0.01,
                partitions=tuple(
                    PartitionSpec(
                        at_round=r, duration=PARTITION_ROUNDS, num_components=2
                    )
                    for r in range(
                        PARTITION_EVERY, PARTITION_HORIZON, PARTITION_EVERY
                    )
                ),
            )
            balancer_kwargs["adversary"] = AdversaryPlan(
                seed=seeds.adversary, fraction=0.10, defense=True
            )
        balancer = engine(
            scenario.ring, config, rng=seeds.balancer, **balancer_kwargs
        )
        instance = Instance(
            ring=scenario.ring,
            balancer=balancer,
            model=model,
            schedule=ensure_rng(seeds.schedule),
            stepper=self.stepper,
            topology=scenario.topology,
            oracle=balancer.oracle,
        )
        if self.robust:
            journal_dir = state_dir / f"{self.name}-{tag}"
            shutil.rmtree(journal_dir, ignore_errors=True)
            journal_dir.mkdir(parents=True)
            instance.journal_dir = journal_dir
            instance.journal = TransferJournal(journal_dir / "journal.jsonl")
            balancer.attach_journal(instance.journal)
        return instance


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="churn-steady",
            nodes=5000,
            warmup=6,
            timed=24,
            setups=3,
            stepper=churn_step,
            crosscheck=2,
        ),
        Workload(
            name="everything-on",
            nodes=2048,
            warmup=6,
            timed=24,
            setups=3,
            stepper=churn_step,
            robust=True,
            crosscheck=2,
        ),
        Workload(
            name="paper-aware",
            nodes=4096,
            warmup=20,
            timed=24,
            setups=2,
            stepper=drift_step,
            proximity=True,
            crosscheck=2,
        ),
    )
}
