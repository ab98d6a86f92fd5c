"""The orchestrating :class:`LoadBalancer` — all four phases end to end.

Typical use::

    from repro.core import LoadBalancer, BalancerConfig

    balancer = LoadBalancer(ring, BalancerConfig(proximity_mode="ignorant"), rng=7)
    report = balancer.run_round()
    print(report.summary_text())

With a topology attached and ``proximity_mode="aware"``, the balancer
selects landmarks, measures per-node landmark vectors, fits the Hilbert
grid and publishes VSA information under Hilbert keys; transfer records
then carry real topology distances.

The round's two tree kernels — the LBI fold and the VSA sweep — work
over one K-nary tree that persists across rounds, traced or not: ring
events repair only the dirty subtrees (:meth:`KnaryTree.refresh_dirty`),
every key resolves through the sorted leaf directory of the tree's
:class:`~repro.ktree.index.TreeIndex` with one batched descent over the
misses, quarantine and partition views are cuts of that one tree
(:meth:`KnaryTree.view_leaves`), the LBI fold is a NumPy scatter plus
a per-level merge, and the VSA sweep visits only the pairing frontier.
Digests, journals and traced event streams equal those of the
object-walk reference :class:`~repro.core.reference.SerialLoadBalancer`
(a fresh tree per part, walked node by node); ``docs/performance.md``
§1–3 explains why they can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.adversary.engine import AdversaryEngine, ensure_engine
from repro.adversary.plan import AdversaryPlan
from repro.adversary.stats import AdversaryRoundStats
from repro.adversary.trust import TrustedAggregation
from repro.core.classification import ClassificationResult, classify_arrays
from repro.core.config import BalancerConfig
from repro.core.lbi import (
    AdmittedReports,
    AggregateSanity,
    AggregationTrace,
    admit_lbi_reports,
    lbi_collect_event,
    lbi_fold_events,
)
from repro.core.placement import (
    PlacementStrategy,
    ProximityPlacement,
    RandomVSPlacement,
)
from repro.core.records import Assignment, SystemLBI
from repro.core.report import BalanceReport
from repro.core.selection import select_shed_subsets
from repro.core.soa import NodeStateArrays
from repro.core.vsa import (
    SlotPairing,
    VSAEntries,
    VSAResult,
    deliver_publications,
    vsa_publish_events,
    vsa_sweep_event,
)
from repro.core.vst import TransferRecord, execute_transfers
from repro.dht.chord import ChordRing
from repro.dht.events import RingEventLog
from repro.dht.node import PhysicalNode
from repro.exceptions import BalancerError, ConfigError
from repro.faults.injector import FaultInjector, ensure_injector
from repro.faults.plan import FaultPlan, PartitionSpec
from repro.faults.retry import RetryPolicy
from repro.faults.stats import FaultRoundStats
from repro.ktree.tree import KnaryTree
from repro.membership import MembershipManager, MembershipView
from repro.membership.views import ComponentRingView
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_metrics, current_tracer
from repro.obs.trace import Span, Tracer
from repro.proximity.mapping import ProximityMapper
from repro.topology.graph import Topology
from repro.topology.landmarks import landmark_vectors, select_landmarks
from repro.topology.routing import DistanceOracle
from repro.util.rng import ensure_rng, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (recovery -> core)
    from repro.recovery.journal import TransferJournal


@dataclass
class RoundPart:
    """One independently balanced slice of a round.

    ``ring`` is the whole ring, its quarantine-filtered view, or one
    partition component's view; ``nodes`` are its alive nodes in ring
    order and ``rows`` masks their rows in the round's
    :class:`~repro.core.soa.NodeStateArrays` snapshot.  ``component``
    names a partition component by its first member.
    """

    ring: ChordRing
    nodes: list[PhysicalNode]
    rows: np.ndarray
    component: int | None = None


def _buckets(
    slots: np.ndarray, entries: np.ndarray, heavy: np.ndarray
) -> dict[int, tuple[list[int], list[int]]]:
    """Each slot's (shed ids, spare ids), both lists in the given order."""
    out: dict[int, tuple[list[int], list[int]]] = {}
    for slot, entry, shed in zip(slots.tolist(), entries.tolist(), heavy.tolist()):
        buck = out.get(slot)
        if buck is None:
            buck = out[slot] = ([], [])
        buck[0 if shed else 1].append(entry)
    return out


def _loads_after(
    alive: list[PhysicalNode],
    arrays: NodeStateArrays,
    assignments: list[Assignment],
    stats: FaultRoundStats,
) -> np.ndarray:
    """The round's node loads after the VST, from the snapshot's column.

    Inside a round only the VST moves load, so only the rows it touched
    are re-summed (left to right, as ``PhysicalNode.load`` sums): the
    source and target of every assignment it was handed, which covers
    each commit, rollback and in-flight suspension.  A crash victim's
    servers land on whichever nodes own their ring successors, so a
    round with crash victims re-sums every row.
    """
    if stats.crashed_nodes:
        return np.asarray([n.load for n in alive], dtype=np.float64)
    loads = arrays.loads.copy()
    ends = [a.candidate.node_index for a in assignments]
    ends += [a.target_node for a in assignments]
    rows = np.flatnonzero(np.isin(arrays.indices, ends)).tolist()
    loads[rows] = [alive[row].load for row in rows]
    return loads


class LoadBalancer:
    """Runs the four-phase load-balancing protocol over a Chord ring.

    Parameters
    ----------
    ring:
        The DHT to balance.
    config:
        Tunables; defaults are the paper's experiment settings.
    topology:
        Underlying Internet topology.  Required for
        ``proximity_mode="aware"`` and for distance-annotated transfers.
    oracle:
        Optional pre-built distance oracle over ``topology`` (shared
        across balancers to reuse Dijkstra caches).
    landmarks:
        Optional pre-selected landmark vertex ids.
    placement:
        Optional explicit placement strategy; overrides the one derived
        from ``config.proximity_mode`` (used by ablations that perturb
        landmark vectors or plug in custom key schemes).
    rng:
        Seed or generator; all internal randomness (report VS choice,
        random placement, landmark choice) derives from it.
    tracer:
        Structured tracer for per-phase spans and events.  Defaults to
        the process-wide tracer from :mod:`repro.obs.runtime`, which is
        the disabled :data:`~repro.obs.trace.NULL_TRACER` unless the
        CLI's ``--trace`` flag (or :func:`repro.obs.observe`) installed
        one — so tracing costs nothing until switched on.
    metrics:
        Metrics registry accumulating cross-round counters/histograms.
        Defaults to the process-wide registry (``None`` = off).
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or a pre-built
        :class:`~repro.faults.FaultInjector` to share one fault history
        across components).  With one attached, every phase runs its
        degraded-mode machinery: LBI reports and VSA publications are
        retried under ``retry`` and may end up lost, transfers may abort
        and roll back, and seeded victims may crash mid-round.  ``None``
        or a null plan keeps every fast path byte-identical to the
        fault-free implementation.
    retry:
        Recovery bounds (attempts, backoff, phase budgets, LBI staleness)
        used when ``faults`` is active; defaults to
        :class:`~repro.faults.RetryPolicy`'s defaults.
    adversary:
        Optional :class:`~repro.adversary.AdversaryPlan` (or a pre-built
        :class:`~repro.adversary.AdversaryEngine` to share one attack
        history across components).  With one attached, drafted nodes
        lie in their LBI reports, renege on prepared transfers or mount
        false dead-node accusations; with ``plan.defense`` on, the
        aggregate gate is upgraded to
        :class:`~repro.adversary.TrustedAggregation` (witness audits,
        EWMA envelopes, trust-scored quarantine) and quarantined nodes
        are excluded from the round by re-tiling the ring without them.
        ``None`` or a null plan keeps every fast path byte-identical to
        the adversary-free implementation.

    ``descent_stats["miss_descents"]`` counts the keys the leaf
    directory could not answer, which descended the tree.
    """

    #: Above this many logged ring events per round (relative floor 64,
    #: else 1/8 of the virtual-server population) the span machinery
    #: costs more than a from-scratch rebuild; the balancer rebuilds.
    REBUILD_EVENT_FLOOR = 64

    def __init__(
        self,
        ring: ChordRing,
        config: BalancerConfig | None = None,
        topology: Topology | None = None,
        oracle: DistanceOracle | None = None,
        landmarks: np.ndarray | None = None,
        placement: PlacementStrategy | None = None,
        rng: int | None | np.random.Generator = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        faults: FaultPlan | FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        adversary: AdversaryPlan | AdversaryEngine | None = None,
    ):
        self.ring = ring
        self.config = config if config is not None else BalancerConfig()
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        self.faults = ensure_injector(
            faults, tracer=self.tracer, metrics=self.metrics
        )
        self.adversary = ensure_engine(
            adversary, tracer=self.tracer, metrics=self.metrics
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.topology = topology
        if topology is not None and oracle is None:
            oracle = DistanceOracle(topology)
        self.oracle = oracle
        #: Last successfully aggregated LBI, kept for degraded-mode reuse
        #: when a later round loses every report (bounded by
        #: ``retry.lbi_staleness_rounds``).
        self._stale_lbi: SystemLBI | None = None
        self._stale_lbi_age = 0
        self._round_index = 0
        #: The persistent tree and the ring events logged since the last
        #: fold; both are opened by the first fold.
        self._events: RingEventLog | None = None
        self._tree: KnaryTree | None = None
        self.descent_stats: dict[str, int] = {"miss_descents": 0}
        #: The LBI report paths' (node count, height), which the sweep
        #: extends.
        self._lbi_paths = (0, 0)
        #: Write-ahead transfer journal; attached by the recovery layer
        #: via :meth:`attach_journal` (``None`` = no durability, the
        #: default, with zero overhead on every path).
        self.journal: TransferJournal | None = None
        #: Epoch/partition state machine; only materialised when the
        #: fault plan actually schedules partitions, so every other run
        #: keeps the exact pre-membership code paths.
        self.membership: MembershipManager | None = None
        if self.faults is not None and self.faults.plan.partitions:
            self.membership = MembershipManager(
                ring, self.faults, tracer=self.tracer, metrics=self.metrics
            )
        #: Aggregate plausibility gate; armed whenever faults are in
        #: play (honest reports always pass, so fault runs without
        #: corruption keep their exact behaviour).  With an adversary
        #: plan whose defense is on, the gate is the trust-scored
        #: :class:`~repro.adversary.TrustedAggregation` instead — a
        #: strict extension, so composed fault+adversary runs keep the
        #: base plausibility rules.
        self._sanity: AggregateSanity | None = None
        if self.adversary is not None and self.adversary.plan.defense:
            self._sanity = TrustedAggregation(
                self.retry.lbi_staleness_rounds,
                rng=self.adversary.audit_rng,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        elif self.faults is not None:
            self._sanity = AggregateSanity(
                self.retry.lbi_staleness_rounds,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        (
            self._lbi_rng,
            self._placement_rng,
            self._landmark_rng,
            self._retry_rng,
        ) = spawn_rngs(ensure_rng(rng), 4)

        self._placement: PlacementStrategy | None = placement
        self._landmarks = landmarks
        if self._placement is None:
            if self.config.proximity_mode == "aware":
                if self.topology is None or self.oracle is None:
                    raise ConfigError(
                        "proximity_mode='aware' requires a topology (landmark "
                        "vectors are topology distances); use mode='ignorant' "
                        "for pure identifier-space experiments"
                    )
                self._placement = self._build_proximity_placement()
            else:
                self._placement = RandomVSPlacement(self.ring, self._placement_rng)

    # ------------------------------------------------------------------
    def _build_proximity_placement(self) -> ProximityPlacement:
        assert self.oracle is not None and self.topology is not None
        if self._landmarks is None:
            self._landmarks = select_landmarks(
                self.oracle,
                self.config.num_landmarks,
                rng=self._landmark_rng,
                strategy=self.config.landmark_strategy,
            )
        nodes = [n for n in self.ring.nodes if n.site is not None]
        if len(nodes) != len(self.ring.nodes):
            raise ConfigError(
                "all nodes need a topology site for proximity-aware balancing"
            )
        sites = np.asarray([n.site for n in nodes], dtype=np.int64)
        vectors = landmark_vectors(self.oracle, self._landmarks, sites)
        mapper = ProximityMapper.fit(vectors, grid_bits=self.config.grid_bits)
        vec_by_node = {n.index: vectors[i] for i, n in enumerate(nodes)}
        return ProximityPlacement(mapper, vec_by_node, self.ring.space)

    @property
    def landmarks(self) -> np.ndarray | None:
        """Landmark vertex ids in use (``None`` in ignorant mode)."""
        return self._landmarks

    # ------------------------------------------------------------------
    # Durability hooks (driven by repro.recovery)
    # ------------------------------------------------------------------
    def attach_journal(self, journal: "TransferJournal | None") -> None:
        """Route write-ahead journaling through ``journal`` (``None`` = off).

        Wires the journal into every component that mutates hosting
        state: the VST executor's transactions and — when a membership
        manager exists — its suspension/heal transactions too.
        """
        self.journal = journal
        if self.membership is not None:
            self.membership.journal = journal

    def _crash_point(self, site: str) -> None:
        """Fire a plan-scheduled process crash if one is armed at ``site``."""
        faults = self.faults
        if faults is not None and faults.crash_due(site):
            faults.fire_crash(site)

    # ------------------------------------------------------------------
    def run_round(self) -> BalanceReport:
        """Execute one full LBI -> classify -> VSA -> VST cycle.

        With a membership manager attached (the fault plan schedules
        partitions), the round first advances the epoch state machine:
        an expired partition heals (in-flight transfers reconciled,
        conservation asserted), a due boundary partition activates, and
        the round then runs either as a normal whole-ring round, a
        whole-ring round with a mid-round cut inside the VST batch, or
        one internally consistent degraded sub-round per component.
        """
        stats = FaultRoundStats()
        adv_stats = AdversaryRoundStats()
        faults = self.faults
        round_index = self._round_index
        self._round_index += 1
        if self.journal is not None:
            self.journal.record("round_begin", round=round_index)
        if faults is not None:
            faults.reset_round(round_index)
        view: MembershipView | None = None
        pending: PartitionSpec | None = None
        if self.membership is not None:
            view, pending = self.membership.begin_round(round_index, stats)
        if self.adversary is not None or self._sanity is not None:
            alive_indices = [n.index for n in self.ring.alive_nodes]
            if self.adversary is not None:
                self.adversary.begin_round(round_index, alive_indices)
            if isinstance(self._sanity, TrustedAggregation):
                self._sanity.begin_round(
                    stats.epoch,
                    stats,
                    alive_indices=alive_indices,
                    adversary_stats=adv_stats,
                )
            elif self._sanity is not None:
                self._sanity.begin_round(
                    stats.epoch, stats, alive_indices=alive_indices
                )
        if view is not None and self.tracer.enabled:
            self.tracer.event(
                "round.degraded",
                epoch=view.epoch,
                components=len(view.components),
            )
        report = self._balance(stats, adv_stats, view, pending)
        if self.journal is not None:
            self.journal.record(
                "round_end", round=round_index, digest=report.canonical_digest()
            )
        return report

    def _round_parts(
        self, alive: list[PhysicalNode], view: MembershipView | None
    ) -> tuple[list[RoundPart], np.ndarray]:
        """Split the round into parts; returns them plus the idle-row mask.

        Under a partition each component with virtual servers is a part
        over its :class:`~repro.membership.views.ComponentRingView`.
        Otherwise the whole ring is the one part — or, when the trust
        layer has quarantined nodes, the view of the trusted survivors,
        so excluded regions re-tile and quarantined nodes neither report
        nor receive transfers.  Idle rows (quarantined nodes, members of
        a component without virtual servers) sit the round out neutral.
        """
        ring = self.ring
        idle = np.zeros(len(alive), dtype=bool)
        if view is not None:
            indices = [n.index for n in alive]
            parts: list[RoundPart] = []
            for members in view.components:
                comp = ComponentRingView(ring, members)
                nodes = comp.alive_nodes
                rows = np.isin(indices, members)
                if any(n.virtual_servers for n in nodes):
                    parts.append(RoundPart(comp, nodes, rows, members[0]))
                else:
                    idle |= rows
            return parts, idle
        trust = self._sanity if isinstance(self._sanity, TrustedAggregation) else None
        excluded = trust.excluded if trust is not None else frozenset()
        if excluded:
            trusted = tuple(n.index for n in alive if n.index not in excluded)
            if trusted and len(trusted) < len(alive):
                retiled = ComponentRingView(ring, trusted)
                nodes = retiled.alive_nodes
                if any(n.virtual_servers for n in nodes):
                    idle[:] = [n.index in excluded for n in alive]
                    return [RoundPart(retiled, nodes, ~idle)], idle
        return [RoundPart(ring, alive, ~idle)], idle

    def _balance(
        self,
        stats: FaultRoundStats,
        adv_stats: AdversaryRoundStats,
        view: MembershipView | None,
        pending: PartitionSpec | None,
    ) -> BalanceReport:
        """The round body: LBI -> classify -> VSA -> VST per part, merged.

        Parts run in deterministic order (see :meth:`_round_parts`);
        their aggregates, aggregation traces and VSA results merge into
        one report.  A partition component left without LBI reports
        goes idle like one without virtual servers.  Stale-LBI reuse
        and the mid-round partition cut are whole-ring only; a
        partitioned round invalidates the cached aggregate, since an
        epoch change makes cross-epoch state inadmissible.  Each phase
        runs in its tracer span, and ``phase_seconds`` sums those spans'
        ``seconds`` per phase, so the trace and the report share one
        clock.
        """
        cfg = self.config
        ring = self.ring
        tracer = self.tracer
        faults = self.faults
        membership = self.membership
        alive = ring.alive_nodes
        arrays = NodeStateArrays.snapshot(alive)
        parts, idle = self._round_parts(alive, view)
        in_flight = 0.0
        span_fields: dict[str, int] = {}
        if view is not None:
            assert membership is not None
            self._stale_lbi = None
            self._stale_lbi_age = 0
            in_flight = membership.in_flight_load
            span_fields = {"epoch": view.epoch, "components": len(view.components)}
        phase_seconds: dict[str, float] = {}

        def clocked(span: Span) -> None:
            name = span.name
            phase_seconds[name] = phase_seconds.get(name, 0.0) + span.seconds

        def classify(
            rows: np.ndarray, loads: np.ndarray, system: SystemLBI, stage: str
        ) -> ClassificationResult:
            return classify_arrays(
                arrays.indices[rows], arrays.capacities[rows], loads[rows],
                system, cfg.epsilon, tracer=tracer, stage=stage,
            )

        with tracer.span(
            "round",
            mode=cfg.proximity_mode,
            nodes=len(alive),
            virtual_servers=ring.num_virtual_servers,
            tree_degree=cfg.tree_degree,
            **span_fields,
        ) as round_span:
            balanced: list[tuple[RoundPart, SystemLBI, ClassificationResult]] = []
            traces: list[AggregationTrace] = []
            vsa = VSAResult()
            transfers: list[TransferRecord] = []
            skipped: list[Assignment] = []
            failed: list[Assignment] = []
            tree_height = 0
            tree_nodes = 0
            for part in parts:
                # Phase 1: tree + LBI aggregation/dissemination.
                component = part.component
                with tracer.span(
                    "lbi", **({} if component is None else {"component": component})
                ) as span:
                    folded = self._lbi_phase(part, arrays, stats, adv_stats)
                    if component is None:
                        folded = self._whole_ring_lbi(folded, stats)
                clocked(span)
                if folded is None:
                    idle |= part.rows
                    continue
                self._crash_point("post-lbi-fold")
                system, trace = folded

                # Phase 2: classification over the part's snapshot rows; its
                # columns also drive publication.
                with tracer.span("classification") as span:
                    before = classify(part.rows, arrays.loads, system, "before")
                clocked(span)

                # Phase 3: publication, then the bottom-up VSA sweep.
                with tracer.span("vsa") as span:
                    published = self._publish_vsa_entries(part, arrays, before)
                    part_vsa, height, node_count = self._sweep_vsa(
                        part, published, system.min_vs_load, stats
                    )
                clocked(span)

                # Phase 4: execute transfers.  Assignments that went stale
                # because churn interleaved between VSA and VST are dropped,
                # not fatal; transfers that abort mid-flight roll back and
                # land in ``failed``.
                with tracer.span("vst") as span:
                    if pending is not None and membership is not None:
                        transfers += self._execute_transfers_with_partition(
                            part_vsa.assignments, pending, skipped, failed, stats
                        )
                    else:
                        transfers += execute_transfers(
                            part.ring, part_vsa.assignments, self.oracle,
                            skipped=skipped, tracer=tracer, faults=faults,
                            failed=failed, fault_stats=stats, journal=self.journal,
                            adversary=self.adversary,
                        )
                clocked(span)

                balanced.append((part, system, before))
                traces.append(trace)
                vsa.assignments += part_vsa.assignments
                vsa.unassigned_heavy += part_vsa.unassigned_heavy
                vsa.unassigned_light += part_vsa.unassigned_light
                vsa.rounds = max(vsa.rounds, part_vsa.rounds)
                vsa.upward_messages += part_vsa.upward_messages
                vsa.entries_published += part_vsa.entries_published
                vsa.entries_lost += part_vsa.entries_lost
                vsa.pairings_by_level.update(part_vsa.pairings_by_level)
                tree_height = max(tree_height, height)
                tree_nodes += node_count

            aggregation = AggregationTrace(
                tree_height=max([t.tree_height for t in traces], default=0),
                upward_rounds=max([t.upward_rounds for t in traces], default=0),
                downward_rounds=max([t.downward_rounds for t in traces], default=0),
                upward_messages=sum(t.upward_messages for t in traces),
                downward_messages=sum(t.downward_messages for t in traces),
                reports=sum(t.reports for t in traces),
            )
            if view is None:
                system = balanced[0][1]
            else:
                total_load = 0.0
                total_capacity = 0.0
                min_vs_load = float("inf")
                for _, part_system, _ in balanced:
                    total_load += part_system.total_load
                    total_capacity += part_system.total_capacity
                    min_vs_load = min(min_vs_load, part_system.min_vs_load)
                if total_capacity <= 0:
                    # Every component lost every report: degrade to the sum
                    # of the advertised node capacities so the round still
                    # reports a well-formed (if uninformative) aggregate.
                    total_capacity = sum(arrays.capacities.tolist())
                    total_load = float(np.sum(arrays.loads))
                system = SystemLBI(
                    total_load=total_load,
                    total_capacity=total_capacity,
                    min_vs_load=min_vs_load,
                )

            # After the VST: nodes crashed mid-batch drop out of their part's
            # classification (their rows stay in ``loads_after``); in a
            # quarantine re-tiled round they sit out neutral instead, like
            # the excluded nodes.  Only faulted rounds have crash victims.
            loads_after = _loads_after(alive, arrays, vsa.assignments, stats)
            crashed = np.isin(arrays.indices, stats.crashed_nodes)
            after = [
                classify(part.rows & ~crashed, loads_after, part_system, "after")
                for part, part_system, _ in balanced
            ]
            retiled = view is None and parts[0].ring is not ring
            idle_after = idle | crashed if retiled else idle
            classification_before = ClassificationResult.merge(
                [before for _, _, before in balanced],
                arrays.indices[idle],
                arrays.loads[idle],
            )
            classification_after = ClassificationResult.merge(
                after, arrays.indices[idle_after], loads_after[idle_after]
            )
            if faults is not None:
                stats.injected_total = faults.injected
                stats.signature = faults.signature()
            self._finalize_adversary_stats(adv_stats, transfers)
            report = BalanceReport(
                config=cfg,
                system_lbi=system,
                num_nodes=len(alive),
                num_virtual_servers=ring.num_virtual_servers,
                node_indices=arrays.indices,
                capacities=arrays.capacities,
                loads_before=arrays.loads,
                loads_after=loads_after,
                classification_before=classification_before,
                classification_after=classification_after,
                aggregation=aggregation,
                vsa=vsa,
                transfers=transfers,
                skipped_assignments=skipped,
                failed_assignments=failed,
                fault_stats=stats,
                adversary_stats=adv_stats,
                tree_height=tree_height,
                tree_nodes_materialized=tree_nodes,
                in_flight_before=in_flight,
                in_flight_after=(
                    membership.in_flight_load if membership is not None else 0.0
                ),
                phase_seconds=phase_seconds,
            )
            round_span.end(
                transfers=len(report.transfers),
                moved_load=report.moved_load,
                heavy_after=report.heavy_after,
                failed_transfers=len(report.failed_assignments),
                faults_injected=report.fault_stats.injected_total,
            )
        if self.metrics is not None:
            self._record_metrics(report)
        return report

    def _whole_ring_lbi(
        self,
        folded: tuple[SystemLBI, AggregationTrace] | None,
        stats: FaultRoundStats,
    ) -> tuple[SystemLBI, AggregationTrace]:
        """Cache a whole-ring aggregate, or reuse the cached one.

        When every report was lost, a cached aggregate within its
        staleness bound stands in (its loads are approximate, which the
        classification slack tolerates); with none, the round raises
        :class:`~repro.exceptions.BalancerError`.
        """
        if folded is not None:
            self._stale_lbi = folded[0]
            self._stale_lbi_age = 0
            return folded
        if (
            self._stale_lbi is None
            or self._stale_lbi_age >= self.retry.lbi_staleness_rounds
        ):
            raise BalancerError("no LBI reports to aggregate")
        self._stale_lbi_age += 1
        stats.stale_lbi_reused = True
        if self.tracer.enabled:
            self.tracer.event(
                "lbi.stale_reuse",
                age=self._stale_lbi_age,
                bound=self.retry.lbi_staleness_rounds,
            )
        # No report was admitted, so no key descended below the root:
        # the round's tree has height 0 whichever kernel folded.
        return self._stale_lbi, AggregationTrace()

    # ------------------------------------------------------------------
    # The persistent tree
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        # Dropped first, so a build that fails on an empty ring leaves
        # no stale tree behind for the next fold to repair.
        self._tree = None
        self._tree = KnaryTree(
            self.ring, self.config.tree_degree, metrics=self.metrics
        )

    def _sync_world(self) -> KnaryTree:
        """Bring the persistent tree up to the current ring; return it.

        The first fold opens the ring event log and builds the tree;
        later folds repair it from the logged ring events, or rebuild it
        when there are too many.  An empty ring fails the build with
        :class:`~repro.exceptions.EmptyRingError`.
        """
        log = self._events
        if log is None:
            log = self._events = RingEventLog(self.ring)
        limit = max(
            self.REBUILD_EVENT_FLOOR, self.ring.num_virtual_servers // 8
        )
        if self._tree is None or log.pending_events > limit:
            log.drain(resolve=False)
            self._rebuild()
        else:
            delta = log.drain()
            if delta.full_reset:
                self._rebuild()
            elif not delta.empty:
                assert delta.dirty is not None
                self._tree.refresh_dirty(delta.dirty)
        assert self._tree is not None
        return self._tree

    # ------------------------------------------------------------------
    # Key-to-leaf resolution: directory lookup + one batched descent
    # ------------------------------------------------------------------
    def _part_slots(self, part: RoundPart, keys: np.ndarray) -> np.ndarray:
        """Leaf slots of the part's KT for ``keys``, in the persistent tree.

        Keys resolve to whole-ring leaves through the sorted leaf
        directory (:meth:`TreeIndex.resolve_leaves`); the misses descend
        together in one :meth:`KnaryTree.descend_batch` — for a view
        part, only down to the view's leaves.  A view part's leaves are
        then cut out of the whole-ring paths
        (:meth:`KnaryTree.view_leaves`) — the view's KT is an upper
        subtree of the ring's, so no fresh tree is built.
        """
        tree = self._tree
        assert tree is not None
        view = None if part.ring is self.ring else part.ring
        slots = tree.index.resolve_leaves(keys)
        miss = np.flatnonzero(slots < 0)
        if miss.size:
            slots[miss] = tree.descend_batch(keys[miss], view)
            self.descent_stats["miss_descents"] += int(miss.size)
            if self.metrics is not None:
                self.metrics.counter("incremental.miss_descents").inc(
                    int(miss.size)
                )
        if view is not None:
            slots = tree.view_leaves(slots, view)
        return slots

    # ------------------------------------------------------------------
    # Phase 1 kernel: vectorized LBI aggregation
    # ------------------------------------------------------------------
    def _lbi_phase(
        self,
        part: RoundPart,
        arrays: NodeStateArrays,
        stats: FaultRoundStats,
        adv_stats: AdversaryRoundStats,
    ) -> tuple[SystemLBI, AggregationTrace] | None:
        """Phase 1 kernel: :func:`~repro.core.lbi.admit_lbi_reports` over
        the part's snapshot rows, then :meth:`_fold_lbi`; ``None`` when
        every report was lost or rejected."""
        rows = admit_lbi_reports(
            part.ring, part.nodes,
            arrays if part.ring is self.ring else arrays.subset(part.rows),
            self._lbi_rng, faults=self.faults, retry=self.retry,
            fault_stats=stats, sanity=self._sanity, epoch=stats.epoch,
            adversary=self.adversary, adversary_stats=adv_stats,
        )
        return self._fold_lbi(part, rows)

    def _fold_lbi(
        self, part: RoundPart, rows: AdmittedReports
    ) -> tuple[SystemLBI, AggregationTrace] | None:
        """Tree sync, then the scatter + level fold over admitted rows.

        Returns ``None`` when no row was admitted.  The tree is synced
        at every fold: a crash inside an earlier part's VST batch
        removes virtual servers before the next part folds.  The keys
        resolve to the part's leaf slots (:meth:`_part_slots`).  The
        union of report root-to-leaf paths — the node set a fresh tree
        would have materialised — is kept in ``_lbi_paths`` as ``(node
        count, height)`` for the sweep to extend.
        """
        tracer = self.tracer
        index = self._sync_world().index
        index.new_stamp()
        if not len(rows):
            # Nothing admitted: a fresh tree would hold just its root,
            # which the sweep's path count then extends.
            _, count, _ = index.stamp_paths(np.zeros(1, dtype=np.int64))
            self._lbi_paths = (count, 0)
            if tracer.enabled:
                lbi_collect_event(tracer, rows, 0)
            return None
        leaf_slots = self._part_slots(part, rows.keys)
        if tracer.enabled:
            lbi_collect_event(tracer, rows, int(np.unique(leaf_slots).size))
        fresh, count, height = index.stamp_paths(leaf_slots)
        # Accumulator cells are reset at exactly the slots this fold
        # stamps; no other cell is read.
        acc_load = np.empty(len(index), dtype=np.float64)
        acc_cap = np.empty(len(index), dtype=np.float64)
        acc_min = np.empty(len(index), dtype=np.float64)
        acc_load[fresh] = 0.0
        acc_cap[fresh] = 0.0
        acc_min[fresh] = np.inf
        # Record scatter in admission order == the per-leaf append
        # order (ufunc .at applies updates sequentially in index order).
        np.add.at(acc_load, leaf_slots, rows.loads)
        np.add.at(acc_cap, leaf_slots, rows.capacities)
        np.minimum.at(acc_min, leaf_slots, rows.min_vs)

        # Child-to-parent merges, one level at a time from the deepest:
        # a child's accumulator is final before its level is gathered,
        # and (parent, rank) ordering inside a level reproduces the
        # ascending-child left-fold after the record fold.
        levels = index.level[fresh]
        parents = index.parent[fresh]
        ranks = index.child_rank[fresh]
        order = np.lexsort((ranks, parents, -levels))
        s_slots = fresh[order]
        s_levels = levels[order]
        s_parents = parents[order]
        cuts = np.nonzero(np.diff(s_levels))[0] + 1
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [s_levels.size]])
        for a, b in zip(starts.tolist(), ends.tolist()):
            if s_levels[a] == 0:
                continue
            children = s_slots[a:b]
            merge_parents = s_parents[a:b]
            np.add.at(acc_load, merge_parents, acc_load[children])
            np.add.at(acc_cap, merge_parents, acc_cap[children])
            np.minimum.at(acc_min, merge_parents, acc_min[children])

        system = SystemLBI(
            total_load=float(acc_load[0]),
            total_capacity=float(acc_cap[0]),
            min_vs_load=float(acc_min[0]),
        )
        trace = AggregationTrace(
            tree_height=height,
            upward_rounds=height,
            downward_rounds=height,
            upward_messages=count - 1,
            downward_messages=count - 1,
            reports=len(rows),
        )
        self._lbi_paths = (count, height)
        if tracer.enabled:
            # Every stamped slot below the root sends one message to
            # its parent, one level up.
            arriving = np.bincount(levels[levels > 0] - 1).tolist()
            lbi_fold_events(
                tracer,
                {level: n for level, n in enumerate(arriving) if n},
                trace,
                system,
            )
        return system, trace

    # ------------------------------------------------------------------
    # Phase 3b kernel: sparse bottom-up sweep
    # ------------------------------------------------------------------
    def _sweep_vsa(
        self,
        part: RoundPart,
        published: VSAEntries,
        min_vs_load: float,
        stats: FaultRoundStats,
    ) -> tuple[VSAResult, int, int]:
        """Phase 3b kernel: deliver publications, sweep only the frontier.

        Returns the result plus the height and node count of the tree a
        fresh object walk would have materialised.  Delivery is
        :func:`~repro.core.vsa.deliver_publications`; the delivered
        entries' keys then land on the part's leaf slots
        (:meth:`_part_slots`, cut to the view for a quarantine or
        partition part).

        Pairing fires only where a bucket reaches the rendezvous
        threshold, and a bucket never holds more entries than were
        delivered into the slot's subtree — a count that is monotone up
        the tree.  The slots whose subtree count reaches the threshold
        therefore form an upward-closed *frontier* subtree (plus the
        root), and everything below it is pure ordered concatenation:
        no pairing, one relayed upward message per visited slot.  Below
        the frontier the object walk's merge order is a DFS — own deliveries
        first, then children by descending region start — which for
        leaf-delivered entries equals a stable sort by ``(-region end,
        level, publication index)``, because tree regions never wrap
        and children tile their parent in rank order.  So the
        sub-frontier cascade collapses to one ``np.lexsort`` and the
        Python loop runs only over frontier slots, in the object walk's
        snapshot's ``(-level, -start)`` pop order, pairing entry ids
        through the shared :class:`~repro.core.vsa.SlotPairing`.
        The tree shape a
        fresh tree would report is the LBI report paths plus the
        delivery paths *newly* stamped here (same stamp generation).
        Trace events go through the reference's functions.
        """
        tracer = self.tracer
        assert self._tree is not None
        index = self._tree.index
        lbi_count, lbi_height = self._lbi_paths
        result = VSAResult(entries_published=len(published), rounds=lbi_height)
        delivered = deliver_publications(
            published,
            result,
            self._retry_rng,
            faults=self.faults,
            retry=self.retry,
            fault_stats=stats,
        )
        if not delivered.size:
            if tracer.enabled:
                vsa_sweep_event(tracer, result)
            return result, lbi_height, lbi_count
        slots_e = self._part_slots(part, published.keys[delivered])
        if tracer.enabled:
            vsa_publish_events(
                tracer, published, delivered, index.level[slots_e].tolist()
            )
        _, count, height = index.stamp_paths(slots_e)

        threshold = self.config.rendezvous_threshold
        level_arr = index.level
        parent_arr = index.parent
        start_arr = index.start
        length_arr = index.length

        # Per-slot subtree delivery counts: chase every delivery path to
        # the root, merging duplicate parents per step so each slot is
        # touched once per distinct depth it is reached from.
        counts = np.zeros(parent_arr.shape[0], dtype=np.int64)
        cur, weight = np.unique(slots_e, return_counts=True)
        while cur.size:
            counts[cur] += weight
            parents = parent_arr[cur]
            keep = parents >= 0
            parents, weight = parents[keep], weight[keep]
            if parents.size:
                cur, inverse = np.unique(parents, return_inverse=True)
                weight = np.bincount(
                    inverse, weights=weight, minlength=cur.size
                ).astype(np.int64)
            else:
                cur = parents
        in_frontier = counts >= threshold
        in_frontier[0] = True  # the root pairs unconditionally

        # Every sub-frontier slot on a delivery path holds a non-empty
        # bucket when popped (nothing below it can pair) and relays it
        # in exactly one upward message.
        result.upward_messages += int(
            np.count_nonzero((counts > 0) & ~in_frontier)
        )

        # Per entry: the deepest frontier ancestor (its pairing anchor)
        # and the topmost sub-frontier slot under it (the child position
        # its clean-merged group occupies in the anchor's bucket).
        anchor = slots_e.copy()
        attach = np.full(anchor.shape, -1, dtype=np.int64)
        active = np.flatnonzero(~in_frontier[anchor])
        while active.size:
            attach[active] = anchor[active]
            anchor[active] = parent_arr[anchor[active]]
            active = active[~in_frontier[anchor[active]]]

        # Assemble the clean groups in the object walk's merge order.  The level
        # key only breaks end-ties between nested slots; deliveries all
        # land on (disjoint) leaves, so it is inert armour in case
        # interior delivery ever appears.
        is_heavy = published.heavy[delivered]
        end_e = start_arr[slots_e] + length_arr[slots_e]
        grouped = np.flatnonzero(attach >= 0)
        order = grouped[
            np.lexsort((grouped, level_arr[slots_e[grouped]], -end_e[grouped]))
        ]
        groups = _buckets(attach[order], delivered[order], is_heavy[order])
        own = np.flatnonzero(attach < 0)
        direct = _buckets(anchor[own], delivered[own], is_heavy[own])

        # Contributions pending at each frontier slot, keyed by the
        # feeding child's region start; children of one parent share a
        # level, so the object walk's pop order extends them into the parent
        # bucket in descending start order.
        feeders: dict[int, list[tuple[int, list[int], list[int]]]] = {}
        for child, buck in groups.items():
            feeders.setdefault(int(parent_arr[child]), []).append(
                (int(start_arr[child]), buck[0], buck[1])
            )

        pairing = SlotPairing(
            published, result, min_vs_load, self.config.strict_heaviest_first,
            tracer=tracer,
        )
        frontier = np.flatnonzero(in_frontier & (counts > 0))
        pop_order = frontier[
            np.lexsort((-start_arr[frontier], -level_arr[frontier]))
        ]
        for slot in pop_order.tolist():
            base = direct.get(slot)
            heavy = list(base[0]) if base else []
            light = list(base[1]) if base else []
            feed = feeders.pop(slot, None)
            if feed is not None:
                feed.sort(key=lambda item: -item[0])
                for _, add_heavy, add_light in feed:
                    heavy.extend(add_heavy)
                    light.extend(add_light)
            if not heavy and not light:
                continue
            is_root = slot == 0
            if is_root or (len(heavy) + len(light)) >= threshold:
                heavy, light = pairing.pair(
                    heavy, light, int(level_arr[slot]), is_root
                )
            if not is_root and (heavy or light):
                feeders.setdefault(int(parent_arr[slot]), []).append(
                    (int(start_arr[slot]), heavy, light)
                )
                result.upward_messages += 1
        result.rounds = max(lbi_height, height)
        if tracer.enabled:
            vsa_sweep_event(tracer, result)
        return result, result.rounds, lbi_count + count

    # ------------------------------------------------------------------
    def _publish_vsa_entries(
        self,
        part: RoundPart,
        arrays: NodeStateArrays,
        before: ClassificationResult,
    ) -> VSAEntries:
        """Phase 3a: heavy nodes publish shed candidates, light ones spare
        capacity, each under its placement key, in node order.

        ``before`` is the part's "before" classification, one row per
        snapshot row of the part, and those rows' loads are the loads
        every part publishes against: a part's VST moves load only among
        its own nodes (its transfers pair its own publications, and a
        node crashed mid-batch hands its load to a successor in the same
        view), so a later part of a partitioned round finds its nodes as
        the snapshot left them.  Light rows
        become spare entries by column arithmetic; heavy rows pick their
        shed sets in one :func:`select_shed_subsets` batch (it consumes
        no randomness).  All keys are then drawn in one ``keys_for`` call
        over the publishers in node order, so the placement stream — and
        hence the table — is identical to drawing each key as its node
        is visited.
        """
        cfg = self.config
        placement = self._placement
        assert placement is not None
        nodes = part.nodes
        targets = before.row_targets
        heavy = before.heavy_rows
        light = before.light_rows
        loads = arrays.loads[part.rows]
        spare = light & (targets - loads > 0)
        heavy_rows = np.flatnonzero(heavy).tolist()
        vs_lists = [nodes[r].virtual_servers for r in heavy_rows]
        sheds = select_shed_subsets(
            [[vs.load for vs in vs_list] for vs_list in vs_lists],
            (loads[heavy] - targets[heavy]).tolist(),
            policy=cfg.selection_policy,
            keep_at_least=cfg.keep_at_least,
        )
        counts = spare.astype(np.int64)
        counts[heavy_rows] = [len(shed) for shed in sheds]
        rows = np.flatnonzero(counts)
        publishers = [nodes[r] for r in rows.tolist()]
        keys = placement.keys_for(publishers)
        counts = counts[rows]
        starts = np.cumsum(counts) - counts
        size = int(counts.sum())
        is_heavy = np.zeros(size, dtype=bool)
        values = np.empty(size, dtype=np.float64)
        vs_ids = np.full(size, -1, dtype=np.int64)
        on_spare = spare[rows]
        values[starts[on_spare]] = (targets - loads)[rows[on_spare]]
        # Shed entries: each heavy publisher's picks, ascending, at its
        # run of rows.
        shed_loads: list[float] = []
        shed_ids: list[int] = []
        for vs_list, shed in zip(vs_lists, sheds):
            for k in shed:
                shed_loads.append(vs_list[k].load)
                shed_ids.append(vs_list[k].vs_id)
        runs = counts[~on_spare]
        at = np.repeat(starts[~on_spare] - (np.cumsum(runs) - runs), runs)
        at += np.arange(at.size)
        is_heavy[at] = True
        values[at] = shed_loads
        vs_ids[at] = shed_ids
        return VSAEntries(
            keys=np.repeat(np.asarray(keys, dtype=np.int64), counts),
            heavy=is_heavy,
            values=values,
            nodes=np.repeat(arrays.indices[part.rows][rows], counts),
            vs_ids=vs_ids,
        )

    # ------------------------------------------------------------------
    # Adversary machinery
    # ------------------------------------------------------------------
    def _finalize_adversary_stats(
        self,
        adv_stats: AdversaryRoundStats,
        transfers: list[TransferRecord],
    ) -> None:
        """Close the round's Byzantine accounting after the VST batch.

        Feeds the defense's transfer-outcome channel (reneging sources
        charged once per round, EWMA envelopes shifted by every executed
        transfer) and attributes executed movement touching an attacker.
        """
        engine = self.adversary
        if engine is None:
            return
        trust = (
            self._sanity
            if isinstance(self._sanity, TrustedAggregation)
            else None
        )
        reneged = engine.reneged
        adv_stats.reneged_transfers = len(reneged)
        if trust is not None:
            for source in sorted({source for source, _ in reneged}):
                trust.note_renege(source)
        for t in transfers:
            if trust is not None:
                trust.note_transfer(t.source_node, t.target_node, t.load)
            if engine.is_attacker(t.source_node) or engine.is_attacker(
                t.target_node
            ):
                adv_stats.attacker_transfers += 1
                adv_stats.attacker_moved_load += float(t.load)
        adv_stats.attackers = engine.active_attackers
        adv_stats.accusations = engine.accusations
        adv_stats.signature = engine.signature()
        adv_stats.actions_total = engine.acted

    # ------------------------------------------------------------------
    # Partition machinery
    # ------------------------------------------------------------------
    def _execute_transfers_with_partition(
        self,
        assignments: list[Assignment],
        spec: PartitionSpec,
        skipped: list[Assignment],
        failed: list[Assignment],
        stats: FaultRoundStats,
    ) -> list[TransferRecord]:
        """Run the VST batch with a partition striking at a seeded slot.

        Transfers before the cut execute normally; the partition then
        activates, every remaining cross-component assignment is
        suspended in flight (its server detached until the heal), and
        the same-component remainder executes against the whole ring,
        in serial order.
        """
        membership = self.membership
        faults = self.faults
        assert membership is not None and faults is not None
        ring = self.ring
        tracer = self.tracer
        slot = faults.partition_slot(len(assignments))
        transfers = execute_transfers(
            ring, assignments[:slot], self.oracle, skipped=skipped,
            tracer=tracer, faults=faults, failed=failed, fault_stats=stats,
            journal=self.journal, adversary=self.adversary,
        )
        remainder = assignments[slot:]
        view = membership.activate(spec, stats)
        if view is not None:
            same_component: list[Assignment] = []
            for a in remainder:
                if view.component_of(a.candidate.node_index) == view.component_of(
                    a.target_node
                ):
                    same_component.append(a)
                else:
                    membership.suspend_assignment(ring, a, skipped, stats)
            remainder = same_component
        transfers += execute_transfers(
            ring, remainder, self.oracle, skipped=skipped,
            tracer=tracer, faults=faults, failed=failed, fault_stats=stats,
            journal=self.journal, adversary=self.adversary,
        )
        return transfers

    def _record_metrics(self, report: BalanceReport) -> None:
        """Fold one round's profile into the attached registry."""
        m = self.metrics
        assert m is not None
        m.counter("balancer.rounds").inc()
        for phase in report.profile.phases:
            m.counter(f"{phase.name}.messages").inc(phase.messages)
            m.histogram(f"{phase.name}.seconds").observe(phase.seconds)
        m.counter("lbi.reports").inc(report.aggregation.reports)
        m.counter("vsa.entries_published").inc(report.vsa.entries_published)
        m.counter("vsa.pairings").inc(len(report.vsa.assignments))
        m.counter("vst.transfers").inc(len(report.transfers))
        m.counter("vst.skipped").inc(len(report.skipped_assignments))
        m.counter("vst.failed").inc(len(report.failed_assignments))
        m.counter("vst.moved_load").inc(report.moved_load)
        fs = report.fault_stats
        if self.faults is not None or fs.vst_rollbacks or fs.vst_failed:
            # Recovery counters only materialise once faults are in play,
            # keeping fault-free metrics dumps identical to before.
            m.counter("lbi.retries").inc(fs.lbi_retries)
            m.counter("lbi.reports_lost").inc(fs.lbi_reports_lost)
            m.counter("vsa.retries").inc(fs.vsa_retries)
            m.counter("vsa.entries_lost").inc(fs.vsa_entries_lost)
            m.counter("vst.rollbacks").inc(fs.vst_rollbacks)
            if fs.stale_lbi_reused:
                m.counter("lbi.stale_reuse").inc()
            if fs.crashed_nodes:
                m.counter("faults.crash_victims").inc(len(fs.crashed_nodes))
        m.gauge("balancer.heavy_after").set(report.heavy_after)
        m.gauge("ktree.height").set(report.tree_height)
        for t in report.transfers:
            if t.has_distance:
                m.histogram("vst.distance").observe(t.distance)

    def measure_lbi(
        self, rng: int | np.random.Generator
    ) -> tuple[NodeStateArrays, SystemLBI, AggregationTrace]:
        """Measure the whole ring's LBI through the round's own fold.

        Reporters are drawn from ``rng``; no faults, sanity gate or
        adversary take part, so none of the balancer's streams is
        consumed.  Returns the snapshot, the aggregate and its cost, or
        raises :class:`~repro.exceptions.BalancerError`.
        """
        alive = self.ring.alive_nodes
        arrays = NodeStateArrays.snapshot(alive)
        rows = admit_lbi_reports(self.ring, alive, arrays, ensure_rng(rng))
        whole = RoundPart(self.ring, alive, np.ones(len(alive), dtype=bool))
        folded = self._fold_lbi(whole, rows)
        if folded is None:
            raise BalancerError("no LBI reports to aggregate")
        return arrays, *folded
