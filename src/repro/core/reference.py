"""The object-walk round kernels, kept as the reference for tests.

:class:`SerialLoadBalancer` runs :class:`~repro.core.balancer.LoadBalancer`'s
round body with the literal protocol's kernels: every part builds a
fresh K-nary tree, its reports are admitted and its publications
delivered one message at a time (:func:`admit_lbi_reports_serially`,
:func:`deliver_publications_serially`), and they are folded and swept
node by node (:func:`~repro.core.lbi.aggregate_lbi`, :class:`VSASweep`).
Digests, journals, fault and adversary logs and traced event streams
must equal :class:`LoadBalancer`'s; no production caller, the trigger
policies included, uses this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.adversary.stats import AdversaryRoundStats
from repro.core.balancer import LoadBalancer, RoundPart
from repro.core.lbi import (
    AdmittedReports,
    AggregateSanity,
    AggregationTrace,
    apply_corruption,
    aggregate_lbi,
    reports_by_leaf,
)
from repro.core.records import ShedCandidate, SpareCapacity, SystemLBI
from repro.core.soa import NodeStateArrays
from repro.core.vsa import (
    SlotPairing,
    VSAEntries,
    VSAResult,
    vsa_publish_events,
    vsa_sweep_event,
)
from repro.dht.chord import ChordRing
from repro.dht.node import PhysicalNode
from repro.exceptions import BalancerError
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryBudget, RetryPolicy, deliver_with_retry
from repro.faults.stats import FaultRoundStats
from repro.idspace.hashing import hash_to_id
from repro.ktree.tree import KnaryTree
from repro.obs.trace import Tracer
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.engine import AdversaryEngine


def admit_lbi_reports_serially(
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
    """:func:`~repro.core.lbi.admit_lbi_reports`, one message at a time.

    The reference for the columnar admission: each node in turn draws
    its reporter, then its report is delayed, dropped and retried
    (:func:`~repro.faults.retry.deliver_with_retry`), duplicated,
    accused, lied about, corrupted, audited and gated with the scalar
    calls, which log each fired event as it happens.  With no
    ``faults`` nothing else draws from ``rng``, so all reporters are
    drawn up front in one ``integers(0, counts)`` call, which is
    stream-identical to the per-node scalar draws.
    """
    policy = retry if retry is not None else RetryPolicy()
    budget = RetryBudget(policy.phase_budget)
    draws: list[int] | None = None
    if faults is None:
        counts = state.vs_counts[state.vs_counts > 0]
        draws = rng.integers(0, counts).tolist() if counts.size else []
    draw_pos = 0
    keys: list[int] = []
    center_rows: list[int] = []
    loads: list[float] = []
    capacities: list[float] = []
    minima: list[float] = []
    vsless = 0
    lost = 0
    for node, load, capacity, min_vs in zip(
        nodes, state.loads.tolist(), state.capacities.tolist(),
        state.min_vs.tolist(),
    ):
        vs_list = node.virtual_servers
        if vs_list:
            if draws is not None:
                pick = draws[draw_pos]
                draw_pos += 1
            else:
                pick = int(rng.integers(len(vs_list)))
            # Report through the leaf at the *center* of the reporter's
            # region: any leaf hosted by the reporter works (the paper
            # only requires "one of its KT leaf nodes"), and the center
            # leaf has depth O(log #VS) whereas the leaf hugging the
            # region's boundary identifier can be as deep as the full
            # bit width.  The vs_id stands in until centers_of runs.
            key = vs_list[pick].vs_id
        else:
            # A node that shed all its virtual servers still has capacity
            # the system should count; it reports through its notional
            # ring position and contributes no minimum-VS-load (the
            # snapshot's ``inf``).
            key = hash_to_id(f"node-{node.index}", ring.space)
            vsless += 1
        if faults is not None:
            subject = f"report:{node.index}"
            outcome = deliver_with_retry(
                policy,
                lambda attempt: faults.drop("lbi", f"{subject}#{attempt}"),
                rng,
                budget,
                extra_delay=faults.delay("lbi", subject),
            )
            if fault_stats is not None:
                fault_stats.lbi_retries += outcome.attempts - 1
                fault_stats.lbi_delay += outcome.simulated_delay
            if not outcome.delivered:
                lost += 1
                if fault_stats is not None:
                    fault_stats.lbi_reports_lost += 1
                continue
            if faults.duplicate("lbi", subject) and fault_stats is not None:
                # The duplicate arrives at the same leaf carrying the same
                # reporter sequence number; the leaf suppresses it, so it
                # costs a message but never double-counts the load.
                fault_stats.lbi_duplicates += 1
        report_epoch = epoch
        truth = (load, capacity, min_vs)
        if adversary is not None:
            accuser = adversary.accuser_of(node.index)
            if accuser is not None:
                if not adversary.plan.defense:
                    # The accusation lands unchecked: the "dead" node's
                    # report is suppressed for the round.
                    lost += 1
                    if adversary_stats is not None:
                        adversary_stats.reports_suppressed += 1
                    continue
                if sanity is not None:
                    # The victim's own report proves liveness; the
                    # defense refutes the accusation and charges the
                    # accuser's trust score.
                    sanity.refute_accusation(accuser)
            load, capacity, min_vs = adversary.lie(
                node.index, load, capacity, min_vs, stats=adversary_stats
            )
        if faults is not None and sanity is not None:
            mode = faults.corrupt_report("lbi", f"report:{node.index}")
            if mode is not None:
                load, capacity, min_vs, report_epoch = apply_corruption(
                    mode, load, capacity, min_vs, report_epoch, sanity.staleness
                )
        if sanity is not None:
            load, capacity, min_vs = sanity.witness_check(
                node.index, (load, capacity, min_vs), truth
            )
            admitted = sanity.admit(
                node.index, load, capacity, min_vs, report_epoch
            )
            if admitted is None:
                lost += 1
                if fault_stats is not None:
                    fault_stats.lbi_reports_lost += 1
                continue
            load, capacity, min_vs = admitted
        if vs_list:
            center_rows.append(len(keys))
        keys.append(key)
        loads.append(load)
        capacities.append(capacity)
        minima.append(min_vs)
    key_arr = np.asarray(keys, dtype=np.int64)
    if center_rows:
        rows = np.asarray(center_rows, dtype=np.int64)
        key_arr[rows] = ring.centers_of(key_arr[rows])
    return AdmittedReports(
        keys=key_arr,
        loads=np.asarray(loads, dtype=np.float64),
        capacities=np.asarray(capacities, dtype=np.float64),
        min_vs=np.asarray(minima, dtype=np.float64),
        vsless=vsless,
        lost=lost,
    )


def deliver_publications_serially(
    entries: VSAEntries,
    result: VSAResult,
    rng: np.random.Generator,
    faults: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    fault_stats: FaultRoundStats | None = None,
) -> np.ndarray:
    """:func:`~repro.core.vsa.deliver_publications`, one message at a time.

    The reference for the columnar delivery: each publication in turn
    goes through :func:`~repro.faults.retry.deliver_with_retry` and the
    scalar duplicate decision.  Returns the delivered entry ids in
    order.
    """
    if faults is None:
        return np.arange(len(entries), dtype=np.int64)
    policy = retry if retry is not None else RetryPolicy()
    budget = RetryBudget(policy.phase_budget)
    delivered: list[int] = []
    for i, (key, node) in enumerate(
        zip(entries.keys.tolist(), entries.nodes.tolist())
    ):
        subject = f"entry:{node}:{key}"
        outcome = deliver_with_retry(
            policy,
            lambda attempt: faults.drop("vsa", f"{subject}#{attempt}"),
            rng,
            budget,
            extra_delay=faults.delay("vsa", subject),
        )
        if fault_stats is not None:
            fault_stats.vsa_retries += outcome.attempts - 1
            fault_stats.vsa_delay += outcome.simulated_delay
        if not outcome.delivered:
            result.entries_lost += 1
            if fault_stats is not None:
                fault_stats.vsa_entries_lost += 1
            continue
        if faults.duplicate("vsa", subject) and fault_stats is not None:
            # Publications are idempotent per (node, key): the leaf keeps
            # the first copy and drops the echo, so a duplicate costs one
            # message and nothing else.
            fault_stats.vsa_duplicates += 1
        delivered.append(i)
    return np.asarray(delivered, dtype=np.int64)


def _entries_from_pairs(
    published: list[tuple[int, ShedCandidate | SpareCapacity]],
) -> VSAEntries:
    """The table of ``(key, entry)`` publications, in order."""
    heavy: list[bool] = []
    values: list[float] = []
    nodes: list[int] = []
    vs_ids: list[int] = []
    for _, entry in published:
        if isinstance(entry, ShedCandidate):
            heavy.append(True)
            values.append(entry.load)
            vs_ids.append(entry.vs_id)
        elif isinstance(entry, SpareCapacity):
            heavy.append(False)
            values.append(entry.delta)
            vs_ids.append(-1)
        else:
            raise BalancerError(f"unknown VSA entry type {type(entry)!r}")
        nodes.append(entry.node_index)
    return VSAEntries(
        keys=np.asarray([key for key, _ in published], dtype=np.int64),
        heavy=np.asarray(heavy, dtype=bool),
        values=np.asarray(values, dtype=np.float64),
        nodes=np.asarray(nodes, dtype=np.int64),
        vs_ids=np.asarray(vs_ids, dtype=np.int64),
    )


class VSASweep:
    """Executes the bottom-up VSA over a (lazily materialised) K-nary tree.

    Parameters
    ----------
    tree:
        The K-nary tree; leaves for published keys are materialised on
        demand.
    threshold:
        Rendezvous threshold: a non-root KT node only pairs once its
        combined heavy+light list length reaches this value (paper
        default 30).
    min_vs_load:
        System-wide ``L_min`` from the LBI phase (remainder rule).
    strict_heaviest_first:
        See :func:`repro.core.rendezvous.pair_rendezvous`.
    tracer:
        Optional structured tracer; with an enabled one the sweep emits
        a ``vsa.publish`` event per delivered entry batch, one
        ``vsa.rendezvous`` event per pairing attempt (KT level, pairs
        made, leftovers) and a ``vsa.sweep`` summary matching the
        returned :class:`VSAResult`.
    faults:
        Optional fault injector: each publication is a message that may
        be delayed, duplicated (suppressed at the leaf) or dropped —
        drops are retried under ``retry`` and count as
        ``entries_lost`` once the bounds bite.
    retry:
        Recovery policy for dropped publications (defaults apply when
        ``faults`` is set without one).
    rng:
        Seed/generator for the retry backoff jitter (only consumed when
        faults are injected, so fault-free sweeps stay byte-identical
        to the pre-fault implementation).
    fault_stats:
        Per-round accumulator for retry/loss accounting.
    """

    def __init__(
        self,
        tree: KnaryTree,
        threshold: int,
        min_vs_load: float,
        strict_heaviest_first: bool = False,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        rng: int | None | np.random.Generator = None,
        fault_stats: FaultRoundStats | None = None,
    ):
        if threshold < 0:
            raise BalancerError(f"threshold must be >= 0, got {threshold}")
        self.tree = tree
        self.threshold = threshold
        self.min_vs_load = min_vs_load
        self.strict_heaviest_first = strict_heaviest_first
        self.tracer = tracer
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.rng = ensure_rng(rng)
        self.fault_stats = fault_stats

    def run(
        self,
        published: VSAEntries | list[tuple[int, ShedCandidate | SpareCapacity]],
    ) -> VSAResult:
        """Run the sweep over an entry table or ``(key, entry)`` pairs.

        Delivery (faults/rng) and the pure bottom-up sweep run in
        sequence; with an enabled tracer a final ``vsa.sweep`` summary
        event matching the returned result is emitted.
        """
        tracer = self.tracer
        entries = (
            published
            if isinstance(published, VSAEntries)
            else _entries_from_pairs(published)
        )
        result = VSAResult(entries_published=len(entries))
        delivered = deliver_publications_serially(
            entries,
            result,
            self.rng,
            faults=self.faults,
            retry=self.retry,
            fault_stats=self.fault_stats,
        )
        self.sweep(entries, self.bucket(entries, delivered), result)
        if tracer is not None and tracer.enabled:
            vsa_sweep_event(tracer, result)
        return result

    def bucket(
        self, entries: VSAEntries, delivered: np.ndarray
    ) -> dict[int, tuple[list[int], list[int]]]:
        """Resolve delivered entry ids to their KT leaves, bucketed.

        One :meth:`~repro.ktree.tree.KnaryTree.descend_batch` resolves
        every key; the per-leaf pending (shed ids, spare ids) buckets,
        keyed by leaf slot, fill in delivery order.
        """
        pending: dict[int, tuple[list[int], list[int]]] = {}
        index = self.tree.index
        slots = self.tree.descend_batch(entries.keys[delivered])
        is_heavy = entries.heavy[delivered].tolist()
        for i, shed, slot in zip(delivered.tolist(), is_heavy, slots.tolist()):
            heavy, light = pending.setdefault(slot, ([], []))
            (heavy if shed else light).append(i)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            vsa_publish_events(
                tracer, entries, delivered, index.level[slots].tolist()
            )
        return pending

    def sweep(
        self,
        entries: VSAEntries,
        pending: dict[int, tuple[list[int], list[int]]],
        result: VSAResult,
    ) -> None:
        """Run the bottom-up rendezvous sweep over delivered buckets.

        ``pending`` maps a leaf slot to the leaf's delivered (shed ids,
        spare ids) lists, as produced by :meth:`bucket`; assignments,
        leftovers and cost accounting accumulate on ``result``.
        """
        pairing = SlotPairing(
            entries, result, self.min_vs_load, self.strict_heaviest_first,
            tracer=self.tracer,
        )

        # Bottom-up sweep over every materialised slot.  Materialisation
        # is frozen now: iterate a snapshot sorted deepest-first.
        index = self.tree.index
        slots = self.tree.nodes_by_level_desc()
        levels = index.level[slots].tolist()
        result.rounds = levels[0]
        for slot, level, parent in zip(
            slots.tolist(), levels, index.parent[slots].tolist()
        ):
            buck = pending.pop(slot, None)
            if buck is None:
                continue
            heavy, light = buck
            is_root = slot == 0
            if is_root or (len(heavy) + len(light)) >= self.threshold:
                up_heavy, up_light = pairing.pair(heavy, light, level, is_root)
            else:
                up_heavy, up_light = heavy, light

            if is_root:
                continue
            if up_heavy or up_light:
                parent_heavy, parent_light = pending.setdefault(parent, ([], []))
                parent_heavy.extend(up_heavy)
                parent_light.extend(up_light)
                result.upward_messages += 1

        if pending:  # pragma: no cover - sweep covers all materialised nodes
            raise BalancerError("VSA sweep left undelivered entries")


class SerialLoadBalancer(LoadBalancer):
    """:class:`LoadBalancer` with a fresh tree per part, walked object by object.

    The part's tree is built by the LBI kernel and extended by the sweep.
    """

    _part_tree: KnaryTree | None = None

    def _lbi_phase(
        self,
        part: RoundPart,
        arrays: NodeStateArrays,
        stats: FaultRoundStats,
        adv_stats: AdversaryRoundStats,
    ) -> tuple[SystemLBI, AggregationTrace] | None:
        """Phase 1 kernel: build the part's KT, collect and fold LBI.

        Returns ``None`` when every report was lost or rejected.
        """
        tree = KnaryTree(part.ring, self.config.tree_degree, metrics=self.metrics)
        self._part_tree = tree
        nodes = part.ring.alive_nodes
        rows = admit_lbi_reports_serially(
            part.ring, nodes, NodeStateArrays.snapshot(nodes), self._lbi_rng,
            faults=self.faults, retry=self.retry, fault_stats=stats,
            sanity=self._sanity, epoch=stats.epoch,
            adversary=self.adversary, adversary_stats=adv_stats,
        )
        reports = reports_by_leaf(tree, rows, self.tracer)
        if not reports:
            return None
        return aggregate_lbi(tree, reports, tracer=self.tracer)

    def _sweep_vsa(
        self,
        part: RoundPart,
        published: VSAEntries,
        min_vs_load: float,
        stats: FaultRoundStats,
    ) -> tuple[VSAResult, int, int]:
        """Phase 3b kernel: the bottom-up sweep over the part's KT.

        Returns the result plus the tree's final height and node count.
        """
        tree = self._part_tree
        assert tree is not None
        result = VSASweep(
            tree, threshold=self.config.rendezvous_threshold,
            min_vs_load=min_vs_load,
            strict_heaviest_first=self.config.strict_heaviest_first,
            tracer=self.tracer, faults=self.faults, retry=self.retry,
            rng=self._retry_rng, fault_stats=stats,
        ).run(published)
        return result, tree.height(), tree.node_count
