"""The epoch state machine: activate partitions, run degraded rounds, heal.

A :class:`MembershipManager` sits between the balancer and the fault
layer.  Each round it is consulted once (:meth:`MembershipManager.begin_round`):
it heals any partition whose bounded duration expired, activates any
:class:`~repro.faults.FaultPlan` partition scheduled for this round, and
hands the balancer either a :class:`MembershipView` (run per-component
degraded rounds) or a pending mid-round spec (cut the VST batch at a
seeded slot).

Epochs are monotone view numbers: activation bumps the epoch (each
component runs under the new partitioned view) and the heal bumps it
again (the reunified view).  LBI reports are tagged with the epoch they
were produced under, which is what lets the aggregate sanity defense in
:mod:`repro.core.lbi` reject cross-epoch state.

The heal protocol reconciles every transfer caught in flight by a
mid-round cut: **commit iff both endpoints are alive**, roll back (with
successor rescue) otherwise, then assert global load conservation —
node totals plus in-flight load before the heal must equal node totals
after it.  Everything here is deterministic: component assignment rides
the injector's seeded partition stream, activation and heal events land
in the injector's signed fault log, and suspended transfers are
reconciled in suspension order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.records import Assignment, assert_loads_conserved
from repro.core.vst import TransferTransaction
from repro.dht.chord import ChordRing
from repro.exceptions import DHTError
from repro.faults.injector import FaultInjector
from repro.faults.plan import PartitionSpec
from repro.faults.stats import FaultRoundStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_metrics, current_tracer
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (recovery -> core)
    from repro.recovery.journal import TransferJournal


@dataclass(frozen=True, slots=True)
class MembershipView:
    """One epoch's component structure: who can talk to whom.

    ``components`` holds sorted node-index tuples, themselves ordered
    by smallest member index, so iterating a view is deterministic.
    An absent partition is represented by ``None`` upstream, never by a
    single-component view.
    """

    epoch: int
    components: tuple[tuple[int, ...], ...]

    def component_of(self, node_index: int) -> int:
        """Component id of ``node_index`` (unlisted nodes join 0)."""
        for cid, members in enumerate(self.components):
            if node_index in members:
                return cid
        return 0

    def assignment(self) -> dict[int, int]:
        """The node-index → component map (for the injector's gate)."""
        return {
            index: cid
            for cid, members in enumerate(self.components)
            for index in members
        }


class MembershipManager:
    """Drives partition activation, in-flight suspension and the heal.

    Parameters
    ----------
    ring:
        The whole (base) ring; component views are derived from it.
    injector:
        The fault injector whose partition stream seeds component
        assignment and whose signed log records activation/heal.
    tracer:
        Structured tracer for ``membership.*`` / ``ktree.regraft``
        events; defaults to the process-wide one.
    metrics:
        Registry for the matching counters; defaults to the
        process-wide one (``None`` = off).

    The ``corrupt_heal`` attribute is a test hook: when set, the next
    heal silently drops the first suspended transfer without committing
    or rolling it back, which must trip the global conservation gate
    (:class:`~repro.exceptions.ConservationError`).
    """

    def __init__(
        self,
        ring: ChordRing,
        injector: FaultInjector,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Wire the manager to one ring + injector; see the class docstring."""
        self.ring = ring
        self.injector = injector
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        self.epoch = 0
        self.active: MembershipView | None = None
        self._active_spec: PartitionSpec | None = None
        self._suspended: list[tuple[TransferTransaction, Assignment]] = []
        self.corrupt_heal = False
        #: Write-ahead journal for suspension/heal transactions; wired
        #: by :meth:`repro.core.balancer.LoadBalancer.attach_journal`.
        self.journal: TransferJournal | None = None

    # ------------------------------------------------------------------
    # Round boundary
    # ------------------------------------------------------------------
    def begin_round(
        self, round_index: int, stats: FaultRoundStats
    ) -> tuple[MembershipView | None, PartitionSpec | None]:
        """Advance the state machine to ``round_index``.

        Runs the heal first if the active partition's duration expired,
        then activates any partition scheduled at this round boundary.
        Returns ``(view, pending)``: ``view`` is the active
        :class:`MembershipView` the round must run under (``None`` for
        a normal round) and ``pending`` a mid-round spec the balancer
        must activate inside this round's VST batch (``None`` if no
        mid-round cut is due).
        """
        if (
            self._active_spec is not None
            and round_index >= self._active_spec.heal_round
        ):
            self.heal(stats)
        pending: PartitionSpec | None = None
        if self.active is None:
            for spec in self.injector.plan.partitions:
                if spec.at_round != round_index:
                    continue
                if spec.mid_round:
                    pending = spec
                else:
                    self.activate(spec, stats)
                break
        stats.epoch = self.epoch
        if self.active is not None:
            stats.partition_components = len(self.active.components)
        return self.active, pending

    def activate(
        self, spec: PartitionSpec, stats: FaultRoundStats
    ) -> MembershipView | None:
        """Split the alive node set per ``spec`` and open a new epoch.

        Explicit component lists are filtered to alive nodes (unlisted
        alive nodes join component 0); seeded splits draw the injector's
        partition stream.  A degenerate outcome (fewer than two
        non-empty components) skips activation and returns ``None``.
        """
        alive = sorted(n.index for n in self.ring.alive_nodes)
        if spec.components:
            alive_set = frozenset(alive)
            listed = frozenset(i for comp in spec.components for i in comp)
            drafts = [
                [i for i in comp if i in alive_set] for comp in spec.components
            ]
            drafts[0].extend(i for i in alive if i not in listed)
            components = tuple(
                tuple(sorted(comp)) for comp in drafts if comp
            )
        else:
            components = self.injector.partition_components(
                alive, spec.num_components
            )
        if len(components) < 2:
            return None
        components = tuple(sorted(components, key=lambda c: c[0]))
        self.epoch += 1
        view = MembershipView(epoch=self.epoch, components=components)
        self.active = view
        self._active_spec = spec
        self.injector.record_partition(self.epoch, components)
        self.injector.set_partition(view.assignment())
        stats.epoch = self.epoch
        stats.partition_components = len(components)
        if self.metrics is not None:
            self.metrics.counter("membership.partition").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "membership.partition",
                epoch=self.epoch,
                components=[len(c) for c in components],
                mid_round=spec.mid_round,
            )
        return view

    # ------------------------------------------------------------------
    # In-flight suspension (mid-round cuts)
    # ------------------------------------------------------------------
    def suspend_assignment(
        self,
        ring: ChordRing,
        a: Assignment,
        skipped: list[Assignment],
        stats: FaultRoundStats,
    ) -> bool:
        """Park one cross-component assignment in the in-flight state.

        Performs the same staleness checks as the VST executor (server
        gone, endpoints changed) and collects stale assignments into
        ``skipped``; otherwise prepares a
        :class:`~repro.core.vst.TransferTransaction` — detaching the
        server — and holds it until the heal reconciles it.
        """
        node_by_index = {n.index: n for n in ring.nodes}
        source = node_by_index.get(a.candidate.node_index)
        target = node_by_index.get(a.target_node)
        try:
            vs = ring.vs(a.candidate.vs_id) if source is not None else None
        except DHTError:  # the server left the ring between VSA and VST
            vs = None
        if (
            source is None
            or target is None
            or vs is None
            or vs.owner is not source
            or not source.alive
            or not target.alive
        ):
            skipped.append(a)
            return False
        txn = TransferTransaction(ring, vs, source, target, journal=self.journal)
        txn.prepare()
        self._suspended.append((txn, a))
        stats.suspended_transfers += 1
        if self.journal is not None:
            self.journal.record(
                "suspend",
                vs=a.candidate.vs_id,
                source=a.candidate.node_index,
                target=a.target_node,
            )
        if self.tracer.enabled:
            self.tracer.event(
                "membership.suspend",
                vs_id=a.candidate.vs_id,
                source=a.candidate.node_index,
                target=a.target_node,
            )
        return True

    @property
    def in_flight_load(self) -> float:
        """Total load of suspended (detached, in-flight) virtual servers."""
        return sum(txn.vs.load for txn, _ in self._suspended)

    @property
    def suspended_count(self) -> int:
        """Number of transfers currently parked in flight."""
        return len(self._suspended)

    # ------------------------------------------------------------------
    # Heal protocol
    # ------------------------------------------------------------------
    def heal(self, stats: FaultRoundStats) -> None:
        """Reunify the ring: reconcile in-flight transfers, check conservation.

        Commits a suspended transfer iff both endpoints are still
        alive, rolls it back (with successor rescue) otherwise —
        reconciliation runs in suspension order, so the outcome is a
        pure function of the fault history.  Afterward the node-load
        total must equal the pre-heal node total plus the pre-heal
        in-flight load (:class:`~repro.exceptions.ConservationError`
        otherwise), the per-component trees are re-grafted under a new
        epoch, and the injector's partition gate is cleared.
        """
        view = self.active
        if view is None:
            return
        if self.injector.crash_due("pre-heal-commit"):
            self.injector.fire_crash("pre-heal-commit")
        nodes_before = sum(n.load for n in self.ring.nodes)
        expected = nodes_before + self.in_flight_load
        suspended = list(self._suspended)
        self._suspended.clear()
        if self.corrupt_heal and suspended:
            suspended.pop(0)
        commits = 0
        rollbacks = 0
        for txn, a in suspended:
            if txn.source.alive and txn.target.alive:
                txn.commit()
                commits += 1
            else:
                txn.rollback()
                rollbacks += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "membership.reconcile",
                    vs_id=a.candidate.vs_id,
                    outcome="commit" if txn.state == "committed" else "rollback",
                )
        regrafts = len(view.components) - 1
        self.injector.record_heal(view.epoch, commits, rollbacks)
        self.injector.set_partition(None)
        self.epoch += 1
        self.active = None
        self._active_spec = None
        stats.healed_commits += commits
        stats.healed_rollbacks += rollbacks
        stats.regrafts += regrafts
        if self.metrics is not None:
            self.metrics.counter("membership.heal").inc()
            self.metrics.counter("ktree.regraft").inc(regrafts)
        if self.tracer.enabled:
            self.tracer.event(
                "ktree.regraft",
                epoch=self.epoch,
                subtrees=regrafts,
            )
            self.tracer.event(
                "membership.heal",
                epoch=self.epoch,
                commits=commits,
                rollbacks=rollbacks,
            )
        after = sum(n.load for n in self.ring.nodes)
        assert_loads_conserved(expected, after, context="membership.heal")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MembershipManager(epoch={self.epoch}, "
            f"active={self.active is not None}, "
            f"suspended={len(self._suspended)})"
        )
