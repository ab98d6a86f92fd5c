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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.adversary.engine import AdversaryEngine, ensure_engine
from repro.adversary.plan import AdversaryPlan
from repro.adversary.stats import AdversaryRoundStats
from repro.adversary.trust import TrustedAggregation
from repro.core.classification import ClassificationResult, classify_all
from repro.core.config import BalancerConfig
from repro.core.lbi import (
    AggregateSanity,
    AggregationTrace,
    aggregate_lbi,
    collect_lbi_reports,
)
from repro.core.placement import (
    PlacementStrategy,
    ProximityPlacement,
    RandomVSPlacement,
)
from repro.core.records import (
    Assignment,
    NodeClass,
    ShedCandidate,
    SpareCapacity,
    SystemLBI,
)
from repro.core.report import BalanceReport
from repro.core.selection import select_shed_subset
from repro.core.vsa import VSAResult, VSASweep
from repro.core.vst import TransferRecord, execute_transfers
from repro.dht.chord import ChordRing
from repro.dht.node import PhysicalNode
from repro.exceptions import ConfigError
from repro.faults.injector import FaultInjector, ensure_injector
from repro.faults.plan import FaultPlan, PartitionSpec
from repro.faults.retry import RetryPolicy
from repro.faults.stats import FaultRoundStats
from repro.ktree.tree import KnaryTree
from repro.membership import MembershipManager, MembershipView
from repro.membership.views import ComponentRingView
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseClock, profile_from_report
from repro.obs.runtime import current_metrics, current_tracer
from repro.obs.trace import Tracer
from repro.proximity.mapping import ProximityMapper
from repro.topology.graph import Topology
from repro.topology.landmarks import landmark_vectors, select_landmarks
from repro.topology.routing import DistanceOracle
from repro.util.rng import ensure_rng, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (recovery -> core)
    from repro.recovery.journal import TransferJournal


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
    """

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
        if view is not None:
            if self.tracer.enabled:
                self.tracer.event(
                    "round.degraded",
                    epoch=view.epoch,
                    components=len(view.components),
                )
            report = self._run_partitioned_round(stats, view, adv_stats)
        else:
            report = self._run_plain_round(stats, pending, adv_stats)
        if self.journal is not None:
            self.journal.record(
                "round_end", round=round_index, digest=report.canonical_digest()
            )
        return report

    def _run_plain_round(
        self,
        stats: FaultRoundStats,
        pending: PartitionSpec | None = None,
        adv_stats: AdversaryRoundStats | None = None,
    ) -> BalanceReport:
        """One whole-ring round (optionally cut mid-VST by ``pending``)."""
        cfg = self.config
        ring = self.ring
        tracer = self.tracer
        faults = self.faults
        if adv_stats is None:
            adv_stats = AdversaryRoundStats()
        alive = ring.alive_nodes
        node_indices = np.asarray([n.index for n in alive], dtype=np.int64)
        capacities = np.asarray([n.capacity for n in alive], dtype=np.float64)
        loads_before = np.asarray([n.load for n in alive], dtype=np.float64)
        # Quarantine re-tiling: when the trust layer has excluded nodes,
        # the whole protocol pipeline runs over a ComponentRingView of
        # the trusted survivors — the same machinery partitions use — so
        # excluded regions are re-tiled and quarantined nodes neither
        # report nor receive transfers.  Their loads still appear in the
        # conservation arrays above; they classify neutral below.
        work: ChordRing | ComponentRingView = ring
        work_alive = alive
        trust = (
            self._sanity
            if isinstance(self._sanity, TrustedAggregation)
            else None
        )
        if trust is not None and trust.excluded:
            trusted = tuple(
                n.index for n in alive if n.index not in trust.excluded
            )
            if trusted and len(trusted) < len(alive):
                view = ComponentRingView(ring, trusted)
                if any(n.virtual_servers for n in view.alive_nodes):
                    work = view
                    work_alive = view.alive_nodes
        clock = PhaseClock()
        round_span = tracer.span(
            "round",
            mode=cfg.proximity_mode,
            nodes=len(alive),
            virtual_servers=ring.num_virtual_servers,
            tree_degree=cfg.tree_degree,
        )

        # Phase 1: tree + LBI aggregation/dissemination.
        with clock.phase("lbi"), tracer.span("lbi"):
            tree = KnaryTree(work, cfg.tree_degree, metrics=self.metrics)
            reports = collect_lbi_reports(
                work,
                tree,
                rng=self._lbi_rng,
                tracer=tracer,
                faults=faults,
                retry=self.retry,
                fault_stats=stats,
                sanity=self._sanity,
                epoch=stats.epoch,
                adversary=self.adversary,
                adversary_stats=adv_stats,
            )
            if reports or self._stale_lbi is None:
                # aggregate_lbi raises BalancerError on an empty report
                # set with nothing cached — total aggregation failure in
                # the very first round is unrecoverable by design.
                system, agg_trace = aggregate_lbi(tree, reports, tracer=tracer)
                self._stale_lbi = system
                self._stale_lbi_age = 0
            elif self._stale_lbi_age < self.retry.lbi_staleness_rounds:
                # Degraded mode: every report was lost this round, but a
                # previous aggregate is still within its staleness bound —
                # reuse it rather than failing the round.  The loads it
                # describes are approximate, which the paper's protocol
                # tolerates (classification thresholds carry slack).
                self._stale_lbi_age += 1
                system = self._stale_lbi
                agg_trace = AggregationTrace(tree_height=tree.height())
                stats.stale_lbi_reused = True
                if tracer.enabled:
                    tracer.event(
                        "lbi.stale_reuse",
                        age=self._stale_lbi_age,
                        bound=self.retry.lbi_staleness_rounds,
                    )
            else:
                # The cached aggregate aged out: surface the failure.
                system, agg_trace = aggregate_lbi(tree, reports, tracer=tracer)
        self._crash_point("post-lbi-fold")

        # Phase 2: classification.  Quarantined nodes sit the round out
        # as neutral — they are outside the trusted aggregate, so no
        # target can be computed for them.
        with clock.phase("classification"), tracer.span("classification"):
            classification_before = classify_all(
                work_alive, system, cfg.epsilon, tracer=tracer, stage="before"
            )
            self._classify_excluded_neutral(
                alive, work_alive, classification_before
            )

        with clock.phase("vsa"):
            # Phase 3a: build VSA entries.
            vsa_span = tracer.span("vsa")
            published = self._publish_vsa_entries(
                work_alive, classification_before
            )

            # Phase 3b: bottom-up VSA sweep.
            vsa_result = VSASweep(
                tree,
                threshold=cfg.rendezvous_threshold,
                min_vs_load=system.min_vs_load,
                strict_heaviest_first=cfg.strict_heaviest_first,
                tracer=tracer,
                faults=faults,
                retry=self.retry,
                rng=self._retry_rng,
                fault_stats=stats,
            ).run(published)
            vsa_span.end()

        # Phase 4: execute transfers.  Assignments that went stale because
        # churn interleaved between VSA and VST are dropped, not fatal;
        # transfers that abort mid-flight roll back and land in ``failed``.
        skipped: list[Assignment] = []
        failed: list[Assignment] = []
        with clock.phase("vst"), tracer.span("vst"):
            if pending is not None and self.membership is not None:
                transfers = self._execute_transfers_with_partition(
                    vsa_result.assignments, pending, skipped, failed, stats
                )
            else:
                transfers = execute_transfers(
                    work, vsa_result.assignments, self.oracle, skipped=skipped,
                    tracer=tracer, faults=faults, failed=failed, fault_stats=stats,
                    journal=self.journal, adversary=self.adversary,
                )

        loads_after = np.asarray([n.load for n in alive], dtype=np.float64)
        classification_after = classify_all(
            work_alive, system, cfg.epsilon, tracer=tracer, stage="after"
        )
        self._classify_excluded_neutral(alive, work_alive, classification_after)
        if faults is not None:
            stats.injected_total = faults.injected
            stats.signature = faults.signature()
        self._finalize_adversary_stats(adv_stats, transfers)
        round_span.end(
            transfers=len(transfers),
            moved_load=float(sum(t.load for t in transfers)),
            heavy_after=len(classification_after.heavy),
            failed_transfers=len(failed),
            faults_injected=stats.injected_total,
        )

        report = BalanceReport(
            config=cfg,
            system_lbi=system,
            num_nodes=len(alive),
            num_virtual_servers=ring.num_virtual_servers,
            node_indices=node_indices,
            capacities=capacities,
            loads_before=loads_before,
            loads_after=loads_after,
            classification_before=classification_before,
            classification_after=classification_after,
            aggregation=agg_trace,
            vsa=vsa_result,
            transfers=transfers,
            skipped_assignments=skipped,
            failed_assignments=failed,
            fault_stats=stats,
            adversary_stats=adv_stats,
            tree_height=tree.height(),
            tree_nodes_materialized=tree.node_count,
            in_flight_after=(
                self.membership.in_flight_load
                if self.membership is not None
                else 0.0
            ),
            phase_seconds=clock.seconds,
        )
        report.profile = profile_from_report(report)
        if self.metrics is not None:
            self._record_metrics(report)
        return report

    # ------------------------------------------------------------------
    def _publish_vsa_entries(
        self,
        nodes: list[PhysicalNode],
        classification: ClassificationResult,
    ) -> list[tuple[int, ShedCandidate | SpareCapacity]]:
        """Phase 3a: heavy nodes publish shed candidates, light ones spare
        capacity, each under its placement key, in node order."""
        cfg = self.config
        assert self._placement is not None
        published: list[tuple[int, ShedCandidate | SpareCapacity]] = []
        for node in nodes:
            cls = classification.classes[node.index]
            if cls is NodeClass.HEAVY:
                target = classification.targets[node.index]
                vs_list = node.virtual_servers
                loads = [vs.load for vs in vs_list]
                shed = select_shed_subset(
                    loads,
                    excess=node.load - target,
                    policy=cfg.selection_policy,
                    keep_at_least=cfg.keep_at_least,
                )
                if not shed:
                    continue
                key = self._placement.key_for(node)
                for idx in shed:
                    published.append(
                        (
                            key,
                            ShedCandidate(
                                load=vs_list[idx].load,
                                vs_id=vs_list[idx].vs_id,
                                node_index=node.index,
                            ),
                        )
                    )
            elif cls is NodeClass.LIGHT:
                delta = classification.targets[node.index] - node.load
                if delta <= 0:
                    continue
                key = self._placement.key_for(node)
                published.append(
                    (key, SpareCapacity(delta=delta, node_index=node.index))
                )
        return published

    # ------------------------------------------------------------------
    # Adversary machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _classify_excluded_neutral(
        alive: list[PhysicalNode],
        work_alive: list[PhysicalNode],
        classification: ClassificationResult,
    ) -> None:
        """Classify quarantine-excluded nodes neutral (no movement).

        Mirrors the degraded-component handling in partitioned rounds:
        a node outside the trusted work ring has no admissible aggregate
        to classify against, so it keeps its load for the round.
        """
        if len(work_alive) == len(alive):
            return
        covered = classification.classes
        for node in alive:
            if node.index not in covered:
                classification.classes[node.index] = NodeClass.NEUTRAL
                classification.targets[node.index] = node.load

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

    def _run_partitioned_round(
        self,
        stats: FaultRoundStats,
        view: MembershipView,
        adv_stats: AdversaryRoundStats | None = None,
    ) -> BalanceReport:
        """One degraded round: an independent sub-round per component.

        Each component sees only its own nodes through a
        :class:`~repro.membership.views.ComponentRingView`, builds an
        epoch-tagged tree over it and runs the identical
        LBI/classify/VSA/VST pipeline.  Components run in deterministic
        order; their results merge into one report whose aggregate is
        the sum of the component aggregates.  A component left without
        LBI reports (or without virtual servers) classifies its nodes
        neutral and moves nothing.  The cached whole-ring aggregate is
        invalidated — an epoch change makes cross-epoch state
        inadmissible by definition.
        """
        cfg = self.config
        ring = self.ring
        tracer = self.tracer
        faults = self.faults
        membership = self.membership
        assert membership is not None
        if adv_stats is None:
            adv_stats = AdversaryRoundStats()
        self._stale_lbi = None
        self._stale_lbi_age = 0
        alive = ring.alive_nodes
        node_indices = np.asarray([n.index for n in alive], dtype=np.int64)
        capacities = np.asarray([n.capacity for n in alive], dtype=np.float64)
        loads_before = np.asarray([n.load for n in alive], dtype=np.float64)
        in_flight = membership.in_flight_load
        clock = PhaseClock()
        round_span = tracer.span(
            "round",
            mode=cfg.proximity_mode,
            nodes=len(alive),
            virtual_servers=ring.num_virtual_servers,
            tree_degree=cfg.tree_degree,
            epoch=view.epoch,
            components=len(view.components),
        )

        total_load = 0.0
        total_capacity = 0.0
        min_vs_load = float("inf")
        agg_trace = AggregationTrace()
        vsa_result = VSAResult()
        classes_before: dict[int, NodeClass] = {}
        targets_before: dict[int, float] = {}
        classes_after: dict[int, NodeClass] = {}
        targets_after: dict[int, float] = {}
        transfers: list[TransferRecord] = []
        skipped: list[Assignment] = []
        failed: list[Assignment] = []
        tree_height = 0
        tree_nodes = 0

        def neutral(nodes: list[PhysicalNode]) -> None:
            """Classify a degraded component's nodes neutral (no movement)."""
            for node in nodes:
                classes_before[node.index] = NodeClass.NEUTRAL
                targets_before[node.index] = node.load
                classes_after[node.index] = NodeClass.NEUTRAL
                targets_after[node.index] = node.load

        for members in view.components:
            comp = ComponentRingView(ring, members)
            comp_alive = comp.alive_nodes
            if not comp_alive:
                continue
            if not any(n.virtual_servers for n in comp_alive):
                neutral(comp_alive)
                continue
            with clock.phase("lbi"), tracer.span("lbi", component=members[0]):
                tree = KnaryTree(
                    comp, cfg.tree_degree, metrics=self.metrics,
                    epoch=view.epoch,
                )
                # Under an active adversary, lies and accusations flow
                # into each component's collection unchanged; quarantined
                # nodes are not re-tiled out here (the components already
                # re-tile the ring) — their reports are rejected at the
                # trust gate instead.
                reports = collect_lbi_reports(
                    comp,
                    tree,
                    rng=self._lbi_rng,
                    tracer=tracer,
                    faults=faults,
                    retry=self.retry,
                    fault_stats=stats,
                    sanity=self._sanity,
                    epoch=view.epoch,
                    adversary=self.adversary,
                    adversary_stats=adv_stats,
                )
                if not reports:
                    neutral(comp_alive)
                    continue
                system_c, agg_c = aggregate_lbi(tree, reports, tracer=tracer)
            self._crash_point("post-lbi-fold")
            with clock.phase("classification"), tracer.span("classification"):
                before_c = classify_all(
                    comp_alive, system_c, cfg.epsilon, tracer=tracer,
                    stage="before",
                )
            with clock.phase("vsa"):
                vsa_span = tracer.span("vsa")
                published = self._publish_vsa_entries(comp_alive, before_c)
                vsa_c = VSASweep(
                    tree,
                    threshold=cfg.rendezvous_threshold,
                    min_vs_load=system_c.min_vs_load,
                    strict_heaviest_first=cfg.strict_heaviest_first,
                    tracer=tracer,
                    faults=faults,
                    retry=self.retry,
                    rng=self._retry_rng,
                    fault_stats=stats,
                ).run(published)
                vsa_span.end()
            with clock.phase("vst"), tracer.span("vst"):
                transfers_c = execute_transfers(
                    comp, vsa_c.assignments, self.oracle, skipped=skipped,
                    tracer=tracer, faults=faults, failed=failed,
                    fault_stats=stats, journal=self.journal,
                    adversary=self.adversary,
                )
            after_c = classify_all(
                comp_alive, system_c, cfg.epsilon, tracer=tracer, stage="after"
            )
            total_load += system_c.total_load
            total_capacity += system_c.total_capacity
            min_vs_load = min(min_vs_load, system_c.min_vs_load)
            agg_trace.tree_height = max(agg_trace.tree_height, agg_c.tree_height)
            agg_trace.upward_rounds = max(agg_trace.upward_rounds, agg_c.upward_rounds)
            agg_trace.downward_rounds = max(
                agg_trace.downward_rounds, agg_c.downward_rounds
            )
            agg_trace.upward_messages += agg_c.upward_messages
            agg_trace.downward_messages += agg_c.downward_messages
            agg_trace.reports += agg_c.reports
            vsa_result.assignments.extend(vsa_c.assignments)
            vsa_result.unassigned_heavy.extend(vsa_c.unassigned_heavy)
            vsa_result.unassigned_light.extend(vsa_c.unassigned_light)
            vsa_result.rounds = max(vsa_result.rounds, vsa_c.rounds)
            vsa_result.upward_messages += vsa_c.upward_messages
            vsa_result.entries_published += vsa_c.entries_published
            vsa_result.entries_lost += vsa_c.entries_lost
            vsa_result.pairings_by_level.update(vsa_c.pairings_by_level)
            classes_before.update(before_c.classes)
            targets_before.update(before_c.targets)
            classes_after.update(after_c.classes)
            targets_after.update(after_c.targets)
            transfers.extend(transfers_c)
            tree_height = max(tree_height, tree.height())
            tree_nodes += tree.node_count

        if total_capacity <= 0:
            # Every component lost every report: degrade to the sum of
            # the advertised node capacities so the round still reports
            # a well-formed (if uninformative) aggregate.
            total_capacity = sum(n.capacity for n in alive)
            total_load = float(np.sum(loads_before))
        system = SystemLBI(
            total_load=total_load,
            total_capacity=total_capacity,
            min_vs_load=min_vs_load,
        )
        loads_after = np.asarray([n.load for n in alive], dtype=np.float64)
        classification_before = ClassificationResult(
            classes=classes_before, targets=targets_before
        )
        classification_after = ClassificationResult(
            classes=classes_after, targets=targets_after
        )
        if faults is not None:
            stats.injected_total = faults.injected
            stats.signature = faults.signature()
        self._finalize_adversary_stats(adv_stats, transfers)
        round_span.end(
            transfers=len(transfers),
            moved_load=float(sum(t.load for t in transfers)),
            heavy_after=len(classification_after.heavy),
            failed_transfers=len(failed),
            faults_injected=stats.injected_total,
        )
        report = BalanceReport(
            config=cfg,
            system_lbi=system,
            num_nodes=len(alive),
            num_virtual_servers=ring.num_virtual_servers,
            node_indices=node_indices,
            capacities=capacities,
            loads_before=loads_before,
            loads_after=loads_after,
            classification_before=classification_before,
            classification_after=classification_after,
            aggregation=agg_trace,
            vsa=vsa_result,
            transfers=transfers,
            skipped_assignments=skipped,
            failed_assignments=failed,
            fault_stats=stats,
            adversary_stats=adv_stats,
            tree_height=tree_height,
            tree_nodes_materialized=tree_nodes,
            in_flight_before=in_flight,
            in_flight_after=membership.in_flight_load,
            phase_seconds=clock.seconds,
        )
        report.profile = profile_from_report(report)
        if self.metrics is not None:
            self._record_metrics(report)
        return report

    def _record_metrics(self, report: BalanceReport) -> None:
        """Fold one round's profile into the attached registry."""
        m = self.metrics
        assert m is not None
        m.counter("balancer.rounds").inc()
        assert report.profile is not None
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

    def run(self, max_rounds: int = 1, stop_when_balanced: bool = True) -> list[BalanceReport]:
        """Run up to ``max_rounds`` rounds, stopping once no node is heavy."""
        if max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {max_rounds}")
        out: list[BalanceReport] = []
        for _ in range(max_rounds):
            report = self.run_round()
            out.append(report)
            if stop_when_balanced and report.heavy_after == 0:
                break
        return out
