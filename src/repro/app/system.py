"""The :class:`P2PSystem` facade.

A downstream user who wants "a DHT that balances itself" should not
need to wire the ring, store, tree, replication and balancer by hand.
This facade owns all of them and keeps their derived state fresh:

* ``put``/``get``/``delete`` — object storage with automatic load
  accounting;
* ``add_node``/``remove_node``/``fail_node`` — membership, with object
  re-homing and replica refresh;
* ``rebalance`` — one four-phase balancing round (proximity-aware when
  a topology was attached);
* ``stats`` — the operator dashboard numbers.

Examples
--------
>>> from repro.app import P2PSystem, SystemConfig
>>> system = P2PSystem(SystemConfig(initial_nodes=8, seed=7))
>>> _ = system.put("movie-001", load=25.0)
>>> system.get("movie-001").load
25.0
>>> report = system.rebalance()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.balancer import LoadBalancer
from repro.core.config import BalancerConfig
from repro.core.report import BalanceReport, check_conservation
from repro.dht.chord import ChordRing
from repro.dht.churn import crash_node, join_node, leave_node
from repro.dht.node import PhysicalNode
from repro.dht.replication import ReplicationManager
from repro.dht.storage import ObjectStore, StoredObject
from repro.exceptions import DHTError, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.idspace import IdentifierSpace
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_metrics, current_tracer
from repro.obs.trace import Tracer
from repro.recovery.manager import RecoveryManager
from repro.topology.graph import Topology
from repro.topology.routing import DistanceOracle
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.stats import gini_coefficient
from repro.workloads.capacity import GnutellaCapacityProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.journal import TransferJournal


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Deployment-level configuration of a :class:`P2PSystem`."""

    initial_nodes: int = 16
    vs_per_node: int = 5
    id_bits: int = 32
    replication_factor: int = 2
    epsilon: float = 0.05
    tree_degree: int = 2
    seed: int | None = None

    def __post_init__(self) -> None:
        """Validate deployment dimensions; raises :class:`ReproError`."""
        if self.initial_nodes < 1:
            raise ReproError("initial_nodes must be >= 1")
        if self.vs_per_node < 1:
            raise ReproError("vs_per_node must be >= 1")
        if self.replication_factor < 0:
            raise ReproError("replication_factor must be >= 0")


@dataclass(frozen=True)
class SystemStats:
    """Operator-facing snapshot."""

    nodes: int
    virtual_servers: int
    objects: int
    total_load: float
    total_capacity: float
    load_per_capacity: float
    unit_load_gini: float
    heavy_fraction: float
    #: Full observability snapshot (counters / gauges / histogram
    #: summaries accumulated by the system's :class:`MetricsRegistry`).
    metrics: dict[str, Any] = field(default_factory=dict)


class P2PSystem:
    """A self-balancing, replicated P2P object store.

    Pass ``faults`` (a :class:`~repro.faults.FaultPlan` or pre-built
    :class:`~repro.faults.FaultInjector`) to run every balancing round
    in a seeded failure environment — dropped/delayed/duplicated
    protocol messages, transfers aborting mid-flight, nodes crashing
    mid-round — with the recovery machinery bounded by ``retry``.
    Rounds still complete and still conserve load; the injected faults
    and the recovery work land in each report's ``fault_stats``.

    Pass ``durable=True`` (or an explicit ``state_dir``) to run every
    round through a :class:`~repro.recovery.RecoveryManager` over the
    live balancer, the object store and the system's five RNG streams:
    transfer intents are write-aheaded to its
    :class:`~repro.recovery.TransferJournal`, each round opens with an
    atomic whole-system checkpoint, and a plan-scheduled
    :class:`~repro.faults.CrashPoint` is recovered *in place* —
    restore + journal replay — so ``rebalance()`` returns the
    same digest-identical report an uncrashed run would.  A system
    opened on a state directory whose last round never finished (the
    previous process died inside it) restores that round's checkpoint
    at construction, so its next ``rebalance()`` completes that round;
    one whose last round finished (the system was closed, or died just
    after) re-runs that round from its checkpoint at construction, so
    the next ``rebalance()`` continues the run.
    The state directory defaults to ``$REPRO_STATE_DIR`` or
    ``.repro-state``.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        topology: Topology | None = None,
        capacities: list[float] | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        faults: FaultPlan | FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        state_dir: str | Path | None = None,
        durable: bool = False,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        # Observability: an explicit tracer/registry wins; otherwise the
        # process-wide ones (CLI --trace/--metrics-out) apply; the system
        # always owns *some* registry so stats() can report cumulative
        # protocol counters.
        self.tracer = tracer if tracer is not None else current_tracer()
        ambient = current_metrics()
        self.metrics = (
            metrics
            if metrics is not None
            else (ambient if ambient is not None else MetricsRegistry())
        )
        root = ensure_rng(self.config.seed)
        self._ring_rng, self._cap_rng, self._site_rng, self._balancer_rng, self._churn_rng = (
            spawn_rngs(root, 5)
        )
        cfg = self.config
        self.topology = topology
        self.oracle = DistanceOracle(topology) if topology is not None else None

        if capacities is None:
            caps = GnutellaCapacityProfile().sample(cfg.initial_nodes, self._cap_rng)
            capacities = caps.tolist()
        elif len(capacities) != cfg.initial_nodes:
            raise ReproError(
                f"capacities has length {len(capacities)}, expected {cfg.initial_nodes}"
            )

        sites = None
        if topology is not None:
            stubs = topology.stub_vertices
            if len(stubs) < cfg.initial_nodes:
                raise ReproError("topology too small for the requested nodes")
            sites = self._site_rng.choice(
                stubs, size=cfg.initial_nodes, replace=False
            ).tolist()

        self.ring = ChordRing(IdentifierSpace(bits=cfg.id_bits))
        self.ring.populate(
            cfg.initial_nodes,
            cfg.vs_per_node,
            capacities=capacities,
            rng=self._ring_rng,
            sites=sites,
        )
        self.store = ObjectStore(self.ring)
        self.replication = ReplicationManager(
            self.ring, replication_factor=cfg.replication_factor
        )
        self._balancer = LoadBalancer(
            self.ring,
            BalancerConfig(
                proximity_mode="aware" if topology is not None else "ignorant",
                epsilon=cfg.epsilon,
                tree_degree=cfg.tree_degree,
            ),
            topology=topology,
            oracle=self.oracle,
            rng=self._balancer_rng,
            tracer=self.tracer,
            metrics=self.metrics,
            faults=faults,
            retry=retry,
        )
        self.reports: list[BalanceReport] = []
        self._recovery: RecoveryManager | None = None
        if durable or state_dir is not None:
            balancer = self._balancer
            self._recovery = RecoveryManager(
                lambda: balancer,
                state_dir=state_dir,
                tracer=self.tracer,
                metrics=self.metrics,
                store=self.store,
                extra_rngs={
                    "balancer_root": self._balancer_rng,
                    "capacity": self._cap_rng,
                    "churn": self._churn_rng,
                    "ring": self._ring_rng,
                    "site": self._site_rng,
                },
            )
            # Its process already counted the resumed round: no counter.
            self._settle(self._recovery.resumed)

    @property
    def journal(self) -> TransferJournal | None:
        """The write-ahead journal in durable mode, else ``None``."""
        return None if self._recovery is None else self._recovery.journal

    def close(self) -> None:
        """Release the journal file handle (durable mode only)."""
        if self._recovery is not None:
            self._recovery.close()

    # ------------------------------------------------------------------
    # storage API
    # ------------------------------------------------------------------
    def put(self, name: str, load: float, size: float | None = None) -> StoredObject:
        """Store (or replace) an object; its load lands on the key owner."""
        obj = self.store.put(name, load=load, size=load if size is None else size)
        self.metrics.counter("store.puts").inc()
        return obj

    def get(self, name: str) -> StoredObject:
        self.metrics.counter("store.gets").inc()
        return self.store.get(name)

    def delete(self, name: str) -> StoredObject:
        self.metrics.counter("store.deletes").inc()
        return self.store.delete(name)

    # ------------------------------------------------------------------
    # membership API
    # ------------------------------------------------------------------
    def add_node(self, capacity: float, site: int | None = None) -> PhysicalNode:
        """Join a new peer; objects re-home and replicas refresh."""
        node = join_node(
            self.ring,
            capacity=capacity,
            vs_count=self.config.vs_per_node,
            rng=self._churn_rng,
            site=site,
        )
        self.store.rehome()
        self.replication.refresh()
        self.metrics.counter("membership.joins").inc()
        return node

    def remove_node(self, node: PhysicalNode | int) -> None:
        """Graceful departure."""
        self._depart(node, crash=False)

    def fail_node(self, node: PhysicalNode | int) -> bool:
        """Crash a peer; returns whether all data survived via replicas."""
        node_obj = self._resolve(node)
        availability = self.replication.available_after_crash({node_obj.index})
        survived = all(availability.values())
        self._depart(node_obj, crash=True)
        return survived

    def _resolve(self, node: PhysicalNode | int) -> PhysicalNode:
        if isinstance(node, PhysicalNode):
            return node
        for n in self.ring.nodes:
            if n.index == node and n.alive:
                return n
        raise DHTError(f"no alive node with index {node}")

    def _depart(self, node: PhysicalNode | int, crash: bool) -> None:
        node_obj = self._resolve(node)
        if crash:
            crash_node(self.ring, node_obj)
        else:
            leave_node(self.ring, node_obj)
        self.store.rehome()
        self.replication.refresh()
        self.metrics.counter(
            "membership.crashes" if crash else "membership.leaves"
        ).inc()

    # ------------------------------------------------------------------
    # balancing API
    # ------------------------------------------------------------------
    def rebalance(self) -> BalanceReport:
        """One four-phase balancing round; replicas refresh afterwards.

        Every round is checked against the load-conservation invariant
        (:func:`~repro.core.report.check_conservation`) before the
        report is recorded; a drifted total raises
        :class:`~repro.exceptions.ConservationError` rather than letting
        a corrupted round feed the analysis layer.

        In durable mode the round runs through the recovery manager's
        checkpoint-first loop and any injected whole-process crash is
        recovered in place (see the class docstring); the caller always
        receives the round's final report.
        """
        if self._recovery is None:
            report = self._balancer.run_round()
        else:
            report = self._recovery.run_round()
        check_conservation(report)
        self._settle(report)
        crashed = len(report.fault_stats.crashed_nodes)
        if crashed:
            self.metrics.counter("membership.crashes").inc(crashed)
        self.reports.append(report)
        return report

    def _settle(self, report: BalanceReport | None) -> None:
        """Bring the store and the replicas up to the ring after ``report``."""
        if report is not None and report.fault_stats.crashed_nodes:
            # An injected mid-round crash changed membership: objects on
            # the crashed peer's region must re-home before the store's
            # consistency checks (and any subsequent put/get) run.
            self.store.rehome()
        self.replication.refresh()

    def rebalance_until_stable(self, max_rounds: int = 5) -> list[BalanceReport]:
        """Rebalance until no node is heavy (or ``max_rounds``)."""
        out: list[BalanceReport] = []
        for _ in range(max_rounds):
            report = self.rebalance()
            out.append(report)
            if report.heavy_after == 0:
                break
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> SystemStats:
        alive = self.ring.alive_nodes
        loads = np.asarray([n.load for n in alive], dtype=np.float64)
        caps = np.asarray([n.capacity for n in alive], dtype=np.float64)
        total_load = float(loads.sum())
        total_cap = float(caps.sum())
        ratio = total_load / total_cap if total_cap else 0.0
        unit = loads / caps
        heavy = float(np.mean(loads > (1 + self.config.epsilon) * ratio * caps))
        return SystemStats(
            nodes=len(alive),
            virtual_servers=self.ring.num_virtual_servers,
            objects=self.store.num_objects,
            total_load=total_load,
            total_capacity=total_cap,
            load_per_capacity=ratio,
            unit_load_gini=gini_coefficient(unit) if len(unit) else 0.0,
            heavy_fraction=heavy,
            metrics=self.metrics.snapshot(),
        )

    def verify(self) -> None:
        """Run every consistency check (raises on corruption)."""
        self.ring.check_invariants()
        self.store.check_consistency()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"P2PSystem(nodes={s.nodes}, vs={s.virtual_servers}, "
            f"objects={s.objects}, L/C={s.load_per_capacity:.3g})"
        )
