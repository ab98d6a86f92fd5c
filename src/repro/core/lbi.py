"""Phase 1: LBI aggregation and dissemination over the K-nary tree.

Every DHT node chooses one of its virtual servers (uniformly at random —
the paper's rule for avoiding redundant reports) and reports
``<L_i, C_i, L_{i,min}>`` through the KT leaf hosted by that virtual
server.  KT nodes merge the reports of their children bottom-up; the
root's aggregate ``<L, C, L_min>`` is then disseminated top-down.

Both sweeps take one round per tree level, which is how the paper's
``O(log_K N)`` bound is accounted; the trace records rounds and message
counts so experiments can verify the bound empirically.

The aggregate sanity defense (:class:`AggregateSanity`) guards the
aggregation against misreporting nodes, in the spirit of Roussopoulos &
Baker's argument that practical balancers must reject stale or
implausible state: every report carries the membership epoch it was
produced under, and a report that is cross-epoch, stale beyond
``lbi_staleness_rounds``, or fails plausibility bounds (non-negative
``L``, positive ``C``, ``L_min <= L``, per-node load delta bounded by
advertised capacity) quarantines the reporting node — the defense falls
back to the node's last-good report when one is fresh enough, and drops
the report entirely otherwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.records import LBIRecord, SystemLBI
from repro.core.soa import NodeStateArrays
from repro.dht.chord import ChordRing
from repro.dht.node import PhysicalNode
from repro.exceptions import BalancerError
from repro.faults.injector import FaultInjector
from repro.faults.blocks import GATE, REFUTE, FiredEvents
from repro.faults.retry import RetryBudget, RetryPolicy, deliver_block
from repro.faults.stats import FaultRoundStats
from repro.idspace.hashing import hash_to_id
from repro.ktree.tree import KnaryTree
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import
    # cycle: repro.adversary.trust subclasses AggregateSanity from here)
    from repro.adversary.engine import AdversaryEngine
    from repro.adversary.stats import AdversaryRoundStats


@dataclass
class AggregationTrace:
    """Cost accounting for one aggregation + dissemination cycle."""

    tree_height: int = 0
    upward_rounds: int = 0
    downward_rounds: int = 0
    upward_messages: int = 0
    downward_messages: int = 0
    reports: int = 0

    @property
    def total_rounds(self) -> int:
        return self.upward_rounds + self.downward_rounds

    @property
    def total_messages(self) -> int:
        return self.upward_messages + self.downward_messages


def apply_corruption(
    mode: int,
    load: float,
    capacity: float,
    min_vs: float,
    epoch: int,
    staleness: int,
) -> tuple[float, float, float, int]:
    """Turn one honest ``<L, C, L_min>`` report into a seeded-mode lie.

    The modes mirror the failure classes :class:`AggregateSanity`
    defends against: 0 = negative load, 1 = implausibly inflated load
    (caught by the delta bound once a last-good report exists),
    2 = zero capacity, 3 = ``L_min > L``, 4 = stale epoch tag.
    """
    if mode == 0:
        return (-abs(load) - 1.0, capacity, min_vs, epoch)
    if mode == 1:
        inflated = load + 2.0 * AggregateSanity.DELTA_FACTOR * (capacity + load) + 1.0
        return (inflated, capacity, min_vs, epoch)
    if mode == 2:
        return (load, 0.0, min_vs, epoch)
    if mode == 3:
        return (load, capacity, load + abs(load) + 1.0, epoch)
    return (load, capacity, min_vs, epoch - (staleness + 1))


#: A report's ``<L, C, L_min>`` as three columns, one row per report.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray]

#: The sanity gate's quarantine reasons, in rule order.
REASONS = (
    "non_finite",
    "negative_load",
    "non_positive_capacity",
    "negative_min_vs",
    "min_vs_exceeds_load",
    "stale_epoch",
    "implausible_delta",
)


def _row(values: tuple[float, float, float]) -> Columns:
    """One report's triple as one-row columns."""
    return (np.array([values[0]]), np.array([values[1]]), np.array([values[2]]))


def _first(columns: Columns) -> tuple[float, float, float]:
    """The first row of ``columns`` as a triple of floats."""
    return (
        float(columns[0][0]), float(columns[1][0]), float(columns[2][0])
    )


class AggregateSanity:
    """Per-node plausibility gate in front of the LBI aggregation.

    Keeps the last admitted ``<L, C, L_min>`` per reporting node.  A
    report failing any rule *quarantines* the node for the round: the
    defense substitutes the node's last-good report when that report's
    epoch is still within the staleness bound, and drops the report
    outright otherwise (the aggregate degrades gracefully instead of
    being poisoned).

    Rules, in check order:

    1. ``L`` and ``C`` finite, ``L_min`` not NaN;
    2. ``L >= 0``, ``C > 0``, ``L_min >= 0``;
    3. ``L_min <= L`` (``L_min = inf`` marks a node with no virtual
       servers and is exempt);
    4. the report's epoch tag is neither from the future nor older than
       ``staleness`` epochs;
    5. the per-node load delta obeys
       ``|L - L_last| <= DELTA_FACTOR * (C + L_last)`` — a node can
       shed at most what it last held and absorb at most a
       capacity-proportional amount between consecutive reports.

    Parameters
    ----------
    staleness:
        Maximum admissible epoch age (mirrors the retry policy's
        ``lbi_staleness_rounds``).
    tracer:
        Structured tracer for ``lbi.quarantine`` events.
    metrics:
        Registry for the ``lbi.quarantine`` counter (``None`` = off).
    """

    #: Bound on the admissible per-node load swing between consecutive
    #: reports, as a multiple of ``capacity + last_load``.
    DELTA_FACTOR = 8.0

    def __init__(
        self,
        staleness: int,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Create an empty gate; see the class docstring."""
        self.staleness = staleness
        self.tracer = tracer
        self.metrics = metrics
        self._last_good: dict[int, tuple[float, float, float, int]] = {}
        self._epoch = 0
        self._stats: FaultRoundStats | None = None

    def begin_round(
        self,
        epoch: int,
        stats: FaultRoundStats | None = None,
        alive_indices: Sequence[int] | None = None,
    ) -> None:
        """Arm the gate for one round under membership view ``epoch``.

        ``alive_indices`` is the current alive node set; when provided,
        last-good entries for departed nodes are evicted so the gate's
        memory stays bounded under sustained churn (departed nodes never
        report again, so eviction cannot change any admit decision).
        """
        self._epoch = epoch
        self._stats = stats
        if alive_indices is not None:
            still_here = frozenset(int(i) for i in alive_indices)
            departed = [k for k in self._last_good if k not in still_here]
            for k in departed:
                del self._last_good[k]

    def witness_check(
        self,
        node_index: int,
        claimed: tuple[float, float, float],
        truth: tuple[float, float, float],
    ) -> tuple[float, float, float]:
        """One row of :meth:`witness_batch`, its penalty charged at once."""
        events = FiredEvents()
        checked = self.witness_batch(
            [node_index], _row(claimed), _row(truth), [0], events
        )
        events.run()
        return _first(checked)

    def witness_batch(
        self,
        nodes: Sequence[int],
        claimed: Columns,
        truth: Columns,
        rows: Sequence[int],
        events: FiredEvents,
    ) -> Columns:
        """Hook for parent-side witness audits; the base gate trusts claims.

        Called with the reporters' claimed ``<L, C, L_min>`` columns and
        the ground truth a witness probe would observe.  The base
        defense performs no audits (it only checks plausibility), so the
        claims pass through unchanged;
        :class:`repro.adversary.trust.TrustedAggregation` overrides this
        with seeded spot-checks, queuing their penalties on ``events``
        under the reporters' ``rows``.
        """
        return claimed

    def refute_accusation(self, accuser: int) -> None:
        """Hook for liveness cross-checks of false accusations; a no-op here.

        Called when an accused node's own report arrives (proof of
        life).  The base defense has no trust accounting to charge the
        accuser against; the trusted subclass penalizes it.
        """

    def _reasons(
        self,
        loads: np.ndarray,
        capacities: np.ndarray,
        min_vs: np.ndarray,
        epochs: np.ndarray,
    ) -> np.ndarray:
        """Per report, 1 + the index in :data:`REASONS` of the first
        violated rule, or 0 when plausible."""
        with np.errstate(invalid="ignore"):
            rules = [
                ~(np.isfinite(loads) & np.isfinite(capacities)) | np.isnan(min_vs),
                loads < 0,
                capacities <= 0,
                min_vs < 0,
                ~np.isinf(min_vs) & (min_vs > loads),
                (epochs > self._epoch) | (self._epoch - epochs > self.staleness),
            ]
        return np.select(rules, range(1, len(rules) + 1), default=0)

    def admit(
        self,
        node_index: int,
        load: float,
        capacity: float,
        min_vs: float,
        epoch: int,
    ) -> tuple[float, float, float] | None:
        """Gate one report; the admitted ``<L, C, L_min>`` or ``None``.

        One row of :meth:`admit_batch`, its events run at once.  ``None``
        means the report was quarantined with no usable last-good
        fallback — the caller must drop it (the node counts as lost for
        this round's aggregate).
        """
        events = FiredEvents()
        keep, *admitted = self.admit_batch(
            [node_index], *_row((load, capacity, min_vs)),
            np.array([epoch]), [0], events,
        )
        events.run()
        return _first(admitted) if keep[0] else None

    def admit_batch(
        self,
        nodes: Sequence[int],
        loads: np.ndarray,
        capacities: np.ndarray,
        min_vs: np.ndarray,
        epochs: np.ndarray,
        rows: Sequence[int],
        events: FiredEvents,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gate one report per node of ``nodes`` (no node twice).

        Returns the keep mask and the admitted ``<L, C, L_min>``
        columns.  A plausible report is admitted and remembered as its
        node's last-good report; an implausible one quarantines its node
        (queued on ``events`` under its entry of ``rows``) and is
        replaced by the node's last-good report when that is fresh
        enough, or dropped (keep is ``False``).
        """
        codes = self._reasons(loads, capacities, min_vs, epochs)
        plausible = np.flatnonzero(codes == 0)
        swings = self._deltas_implausible(
            [nodes[i] for i in plausible.tolist()],
            loads[plausible],
            capacities[plausible],
        )
        codes[plausible[swings]] = len(REASONS)
        keep = codes == 0
        admitted = np.flatnonzero(keep).tolist()
        out = (loads.copy(), capacities.copy(), min_vs.copy())
        last_good = self._last_good
        for i in np.flatnonzero(~keep).tolist():
            node = nodes[i]
            events.add(
                rows[i], GATE, self._quarantine, node, REASONS[int(codes[i]) - 1]
            )
            last = last_good.get(node)
            if last is not None and self._epoch - last[3] <= self.staleness:
                keep[i] = True
                out[0][i], out[1][i], out[2][i] = last[:3]
        if admitted:
            values = zip(
                loads[admitted].tolist(), capacities[admitted].tolist(),
                min_vs[admitted].tolist(), epochs[admitted].tolist(),
            )
            last_good.update(zip([nodes[i] for i in admitted], values))
        return keep, *out

    def _deltas_implausible(
        self, nodes: Sequence[int], loads: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        """Rule 5: the per-report load-swing heuristic (see class docs).

        A blind bound — it knows nothing about what actually moved, so
        a node that legitimately absorbed far more than
        ``DELTA_FACTOR`` times its capacity in one heavy rebalancing
        round is rejected too.  Overridable:
        :class:`repro.adversary.trust.TrustedAggregation` replaces it
        with transfer-accounted EWMA envelopes once it has one for the
        node.
        """
        last_good = self._last_good
        last = [last_good.get(node) for node in nodes]
        known = np.array([entry is not None for entry in last], dtype=bool)
        last_load = np.array(
            [entry[0] if entry is not None else 0.0 for entry in last],
            dtype=np.float64,
        )
        with np.errstate(invalid="ignore"):
            swing = np.abs(loads - last_load) > self.DELTA_FACTOR * (
                capacities + last_load
            )
        return known & swing

    def _quarantine(self, node_index: int, reason: str) -> None:
        """Record one quarantine decision (stats, counter, event)."""
        if self._stats is not None:
            self._stats.quarantined_nodes.append(node_index)
        if self.metrics is not None:
            self.metrics.counter("lbi.quarantine").inc()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "lbi.quarantine", node=node_index, reason=reason
            )


@dataclass
class AdmittedReports:
    """The LBI reports one part admitted, as columns in admission order.

    ``keys`` are the identifier keys the reports enter the KT at;
    ``loads``, ``capacities`` and ``min_vs`` the admitted
    ``<L, C, L_min>`` values.  ``vsless`` counts reporters without
    virtual servers and ``lost`` the reports dropped for good.
    """

    keys: np.ndarray
    loads: np.ndarray
    capacities: np.ndarray
    min_vs: np.ndarray
    vsless: int = 0
    lost: int = 0

    def __len__(self) -> int:
        return int(self.keys.size)


def admit_lbi_reports(
    ring: ChordRing,
    nodes: Sequence[PhysicalNode],
    state: NodeStateArrays,
    rng: np.random.Generator,
    faults: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    fault_stats: FaultRoundStats | None = None,
    sanity: AggregateSanity | None = None,
    epoch: int = 0,
    adversary: "AdversaryEngine | None" = None,
    adversary_stats: "AdversaryRoundStats | None" = None,
) -> AdmittedReports:
    """Take every per-message LBI decision for ``nodes``, as columns.

    ``state`` holds the nodes' honest ``<L, C, L_min>`` and virtual
    server counts, row for row.  Each node reports through the KT leaf
    of one uniformly chosen hosted virtual server.
    :class:`~repro.core.balancer.LoadBalancer` folds the returned rows
    through its persistent tree.

    With a ``faults`` injector attached, each report is one *message*:
    it may be delayed, duplicated (the duplicate is suppressed at the
    leaf by the reporter's sequence number and only costs a message) or
    dropped — dropped reports are resent under ``retry`` (bounded
    attempts, seeded backoff, phase timeout budget) and count as lost
    once the bounds bite, leaving the aggregate approximate rather than
    the phase failed.  Recovery accounting lands in ``fault_stats``.

    With an ``adversary`` engine attached, an active false accuser
    suppresses its victim's report outright when the plan's defense is
    off (and is refuted via :meth:`AggregateSanity.refute_accusation`
    when it is on, since the victim's own report proves liveness), and
    lying attackers substitute their claimed ``<L, C, L_min>``;
    accounting lands in ``adversary_stats``.  With a ``sanity`` gate
    attached, the plan's ``corrupt`` channel may then rewrite the raw
    values into a seeded lie, the gate's witness audits see the claims
    and the ground truth, and the gate admits the values, substitutes a
    node's last-good report, or quarantines the node and drops the
    report.  ``epoch`` tags each report with the membership view it was
    produced under.

    Every decision is a column operation over the rows still in play:
    fault channels are drawn in blocks
    (:mod:`repro.faults.blocks`, :func:`~repro.faults.retry.deliver_block`),
    and lies, audits and the gate are the engines' batch methods.  Only
    what fires is handled row by row, and the fired events (fault-log
    entries, lies, penalties, quarantines) run in the order
    :func:`repro.core.reference.admit_lbi_reports_serially`, the
    message-at-a-time reference, runs them.  Reporter picks come from
    ``rng``, which the retry jitter shares: the picks of the reporters
    up to a dropped report are drawn, in one ``integers(0, counts)``
    call, before its backoff jitter, which reproduces the per-node
    scalar interleaving.  A reporter's key is the center of its region
    *in* ``ring`` — for a partition or quarantine view, the re-tiled
    center — computed for all admitted rows by one
    :meth:`~repro.dht.chord.ChordRing.centers_of` call.
    """
    n = len(nodes)
    counts = state.vs_counts
    vs_rows = np.flatnonzero(counts > 0)
    picks = np.zeros(n, dtype=np.int64)
    node_ids: list[int] = state.indices.tolist()
    events = FiredEvents()
    keep = np.ones(n, dtype=bool)
    lost = 0

    def subject(row: int) -> str:
        return f"report:{node_ids[row]}"

    if faults is None:
        if vs_rows.size:
            picks[vs_rows] = rng.integers(0, counts[vs_rows])
    else:
        policy = retry if retry is not None else RetryPolicy()
        drawn = 0

        def pick_through(row: int) -> None:
            nonlocal drawn
            end = int(np.searchsorted(vs_rows, row, side="right"))
            if end > drawn:
                segment = vs_rows[drawn:end]
                picks[segment] = rng.integers(0, counts[segment])
                drawn = end

        delivery = deliver_block(
            policy, faults, "lbi", n, rng, RetryBudget(policy.phase_budget),
            events, subject, before_backoff=pick_through,
        )
        pick_through(n - 1)
        keep = delivery.delivered
        dropped = n - int(np.count_nonzero(keep))
        lost += dropped
        duplicated = faults.duplicates(
            "lbi", np.flatnonzero(keep).tolist(), subject, events
        )
        if fault_stats is not None:
            fault_stats.lbi_retries += delivery.retries
            for delay in delivery.delays:
                fault_stats.lbi_delay += delay
            fault_stats.lbi_reports_lost += dropped
            # A duplicate arrives at the same leaf carrying the same
            # reporter sequence number; the leaf suppresses it, so it
            # costs a message but never double-counts the load.
            fault_stats.lbi_duplicates += len(duplicated)

    loads = state.loads.copy()
    capacities = state.capacities.copy()
    minima = state.min_vs.copy()
    epochs = np.full(n, epoch, dtype=np.int64)
    if adversary is not None:
        rows = np.flatnonzero(keep)
        for i, accuser in adversary.accusers_of(state.indices[rows]):
            row = int(rows[i])
            if not adversary.plan.defense:
                # The accusation lands unchecked: the "dead" node's
                # report is suppressed for the round.
                keep[row] = False
                lost += 1
                if adversary_stats is not None:
                    adversary_stats.reports_suppressed += 1
            elif sanity is not None:
                # The victim's own report proves liveness; the defense
                # refutes the accusation and charges the accuser.
                events.add(row, REFUTE, sanity.refute_accusation, accuser)
        rows = np.flatnonzero(keep)
        claimed = adversary.lies(
            state.indices[rows].tolist(), loads[rows], capacities[rows],
            minima[rows], rows.tolist(), events, adversary_stats,
        )
        for column, values in zip((loads, capacities, minima), claimed):
            column[rows] = values
    if faults is not None and sanity is not None:
        for row, mode in faults.corruptions(
            "lbi", np.flatnonzero(keep).tolist(), subject, events
        ):
            loads[row], capacities[row], minima[row], epochs[row] = apply_corruption(
                mode, float(loads[row]), float(capacities[row]),
                float(minima[row]), epoch, sanity.staleness,
            )
    if sanity is not None:
        rows = np.flatnonzero(keep)
        row_list = rows.tolist()
        reporters = state.indices[rows].tolist()
        checked = sanity.witness_batch(
            reporters,
            (loads[rows], capacities[rows], minima[rows]),
            (state.loads[rows], state.capacities[rows], state.min_vs[rows]),
            row_list,
            events,
        )
        passed, *admitted = sanity.admit_batch(
            reporters, *checked, epochs[rows], row_list, events
        )
        for column, values in zip((loads, capacities, minima), admitted):
            column[rows] = values
        rejected = int(rows.size - np.count_nonzero(passed))
        keep[rows[~passed]] = False
        lost += rejected
        if fault_stats is not None:
            fault_stats.lbi_reports_lost += rejected
    events.run()

    # Report through the leaf at the *center* of the reporter's region:
    # any leaf hosted by the reporter works (the paper only requires "one
    # of its KT leaf nodes"), and the center leaf has depth O(log #VS)
    # whereas the leaf hugging the region's boundary identifier can be
    # as deep as the full bit width.  A node that shed all its virtual
    # servers still has capacity the system should count; it reports
    # through its notional ring position and contributes no
    # minimum-VS-load (the snapshot's ``inf``).
    admitted_rows = np.flatnonzero(keep)
    has_vs = counts[admitted_rows] > 0
    keys = np.empty(admitted_rows.size, dtype=np.int64)
    if has_vs.any():
        reporting = admitted_rows[has_vs]
        keys[has_vs] = ring.centers_of(
            np.asarray(
                [
                    nodes[row].virtual_servers[pick].vs_id
                    for row, pick in zip(
                        reporting.tolist(), picks[reporting].tolist()
                    )
                ],
                dtype=np.int64,
            )
        )
    if not has_vs.all():
        keys[~has_vs] = [
            hash_to_id(f"node-{node_ids[row]}", ring.space)
            for row in admitted_rows[~has_vs].tolist()
        ]
    return AdmittedReports(
        keys=keys,
        loads=loads[admitted_rows],
        capacities=capacities[admitted_rows],
        min_vs=minima[admitted_rows],
        vsless=int(n - vs_rows.size),
        lost=lost,
    )


def collect_lbi_reports(
    ring: ChordRing,
    tree: KnaryTree,
    rng: int | None | np.random.Generator = None,
    tracer: Tracer | None = None,
    faults: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    fault_stats: FaultRoundStats | None = None,
    sanity: AggregateSanity | None = None,
    epoch: int = 0,
    adversary: "AdversaryEngine | None" = None,
    adversary_stats: "AdversaryRoundStats | None" = None,
) -> dict[int, list[LBIRecord]]:
    """Leaf-indexed LBI reports for every alive node of ``ring``.

    A reference kernel with no production caller, kept in this module
    because the round benchmark's span table names it here.
    :func:`admit_lbi_reports`'s decisions, then
    :func:`reports_by_leaf`.
    """
    nodes = ring.alive_nodes
    rows = admit_lbi_reports(
        ring,
        nodes,
        NodeStateArrays.snapshot(nodes),
        ensure_rng(rng),
        faults=faults,
        retry=retry,
        fault_stats=fault_stats,
        sanity=sanity,
        epoch=epoch,
        adversary=adversary,
        adversary_stats=adversary_stats,
    )
    return reports_by_leaf(tree, rows, tracer)


def reports_by_leaf(
    tree: KnaryTree, rows: AdmittedReports, tracer: Tracer | None = None
) -> dict[int, list[LBIRecord]]:
    """Admitted reports by leaf: one
    :meth:`~repro.ktree.tree.KnaryTree.descend_batch` over the keys,
    then each reached leaf's slot maps to its reports, in admission
    order.  With an enabled ``tracer``, one ``lbi.collect`` event
    summarises the collection.
    """
    by_leaf: dict[int, list[LBIRecord]] = {}
    for load, capacity, min_vs, slot in zip(
        rows.loads.tolist(), rows.capacities.tolist(), rows.min_vs.tolist(),
        tree.descend_batch(rows.keys).tolist(),
    ):
        by_leaf.setdefault(slot, []).append(
            LBIRecord(load=load, capacity=capacity, min_vs_load=min_vs)
        )
    if tracer is not None and tracer.enabled:
        lbi_collect_event(tracer, rows, len(by_leaf))
    return by_leaf


def aggregate_lbi(
    tree: KnaryTree,
    reports_by_leaf: dict[int, list[LBIRecord]],
    tracer: Tracer | None = None,
) -> tuple[SystemLBI, AggregationTrace]:
    """Run the bottom-up aggregation sweep and the top-down dissemination.

    A reference kernel with no production caller, kept here for the
    benchmark like :func:`collect_lbi_reports`.  Returns the root
    aggregate and the cost trace.  Raises
    :class:`BalancerError` when no reports were supplied (an empty system
    has no meaningful ``<L, C, L_min>``).

    With an enabled ``tracer``, one ``lbi.level`` event is emitted per
    tree level of the upward sweep (child-to-parent messages entering
    that level) plus one ``lbi.aggregate`` summary whose counts equal
    the returned :class:`AggregationTrace` exactly.
    """
    trace = AggregationTrace()
    if not reports_by_leaf:
        raise BalancerError("no LBI reports to aggregate")
    tracing = tracer is not None and tracer.enabled
    messages_at_level: Counter[int] | None = Counter() if tracing else None

    # Bottom-up merge over the materialised tree, keyed by slot; each
    # node folds its own reports, then its children by ascending rank.
    partial: dict[int, LBIRecord] = {}
    index = tree.index
    slots = tree.nodes_by_level_desc()
    levels = index.level[slots].tolist()
    trace.tree_height = levels[0]
    for slot, level, row in zip(
        slots.tolist(), levels, index.child[slots].tolist()
    ):
        acc: LBIRecord | None = None
        records = reports_by_leaf.get(slot)
        if records is not None:
            trace.reports += len(records)
            for rec in records:
                acc = rec if acc is None else acc.merge(rec)
        for child in row:
            child_val = partial.pop(child, None)
            if child_val is not None:
                acc = child_val if acc is None else acc.merge(child_val)
                trace.upward_messages += 1
                if messages_at_level is not None:
                    messages_at_level[level] += 1
        if acc is not None:
            partial[slot] = acc

    root_val = partial.get(0)
    if root_val is None:
        raise BalancerError("aggregation produced no value at the root")
    system = SystemLBI.from_record(root_val)

    # Round accounting: one round per level for each sweep; dissemination
    # fans the aggregate back down the same paths (same message count).
    trace.upward_rounds = trace.tree_height
    trace.downward_rounds = trace.tree_height
    trace.downward_messages = trace.upward_messages

    if tracing:
        assert tracer is not None and messages_at_level is not None
        lbi_fold_events(tracer, messages_at_level, trace, system)
    return system, trace


def lbi_collect_event(tracer: Tracer, rows: AdmittedReports, leaves: int) -> None:
    """Emit one part's ``lbi.collect`` summary (``leaves`` distinct leaves)."""
    tracer.event(
        "lbi.collect",
        reports=len(rows),
        leaves=leaves,
        vsless_nodes=rows.vsless,
        reports_lost=rows.lost,
    )


def lbi_fold_events(
    tracer: Tracer,
    messages_at_level: Mapping[int, int],
    trace: AggregationTrace,
    system: SystemLBI,
) -> None:
    """Emit one part's ``lbi.level`` events, deepest first, then its
    ``lbi.aggregate``; ``messages_at_level`` maps a level to the
    child-to-parent messages arriving at it."""
    for level in sorted(messages_at_level, reverse=True):
        tracer.event(
            "lbi.level", level=level, messages_up=messages_at_level[level]
        )
    tracer.event(
        "lbi.aggregate",
        reports=trace.reports,
        messages_up=trace.upward_messages,
        messages_down=trace.downward_messages,
        rounds=trace.total_rounds,
        tree_height=trace.tree_height,
        total_load=system.total_load,
        total_capacity=system.total_capacity,
        min_vs_load=system.min_vs_load,
    )


def direct_system_lbi(nodes: list[PhysicalNode]) -> SystemLBI:
    """Ground-truth ``<L, C, L_min>`` computed centrally (for testing).

    The tree-based aggregation must produce exactly this value; tests
    compare both paths.
    """
    alive = [n for n in nodes if n.alive]
    with_vs = [n for n in alive if n.virtual_servers]
    if not with_vs:
        raise BalancerError("no alive nodes with virtual servers")
    return SystemLBI(
        total_load=sum(n.load for n in alive),
        total_capacity=sum(n.capacity for n in alive),
        min_vs_load=min(n.min_vs_load for n in with_vs),
    )
