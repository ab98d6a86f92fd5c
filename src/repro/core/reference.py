"""The object-walk round kernels, kept as the reference for tests.

:class:`SerialLoadBalancer` runs :class:`~repro.core.balancer.LoadBalancer`'s
round body with the literal protocol's tree kernels: every part builds a
fresh K-nary tree, and its reports and publications are folded and swept
node by node (:func:`~repro.core.lbi.collect_lbi_reports`,
:func:`~repro.core.lbi.aggregate_lbi`, :class:`VSASweep`).  Digests,
journals and traced event streams must equal :class:`LoadBalancer`'s;
no production caller, the trigger policies included, uses this module.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.stats import AdversaryRoundStats
from repro.core.balancer import LoadBalancer, RoundPart
from repro.core.lbi import AggregationTrace, aggregate_lbi, collect_lbi_reports
from repro.core.records import ShedCandidate, SpareCapacity, SystemLBI
from repro.core.soa import NodeStateArrays
from repro.core.vsa import (
    SlotPairing,
    VSAEntries,
    VSAResult,
    deliver_publications,
    vsa_publish_events,
    vsa_sweep_event,
)
from repro.exceptions import BalancerError
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.faults.stats import FaultRoundStats
from repro.ktree.tree import KnaryTree
from repro.obs.trace import Tracer
from repro.util.rng import ensure_rng


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
        delivered = deliver_publications(
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
        reports = collect_lbi_reports(
            part.ring, tree, rng=self._lbi_rng, tracer=self.tracer,
            faults=self.faults, retry=self.retry, fault_stats=stats,
            sanity=self._sanity, epoch=stats.epoch,
            adversary=self.adversary, adversary_stats=adv_stats,
        )
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
