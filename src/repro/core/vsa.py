"""Phase 3: the bottom-up virtual-server-assignment sweep.

VSA information enters the tree at the KT leaf owning the identifier
under which it was *published* — the node's Hilbert key in
proximity-aware mode, the position of one of its own virtual servers in
proximity-ignorant mode.  The sweep then walks the materialised tree
deepest-level first: every KT node merges what its children could not
pair with what entered at itself; once the combined list length reaches
the rendezvous threshold (or unconditionally at the root) the node runs
the pairing loop and sends pair decisions out, propagating only leftover
entries upward.

Because each KT subtree covers a contiguous identifier-space interval,
entries published under nearby keys meet at deep rendezvous points —
with proximity-aware placement, "nearby key" means "physically close",
which is the whole trick.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.records import Assignment, ShedCandidate, SpareCapacity
from repro.core.rendezvous import pair_rendezvous
from repro.exceptions import BalancerError
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryBudget, RetryPolicy, deliver_with_retry
from repro.faults.stats import FaultRoundStats
from repro.ktree.tree import KnaryTree
from repro.obs.trace import Tracer
from repro.util.rng import ensure_rng


@dataclass
class VSAResult:
    """Outcome and cost accounting of one VSA sweep."""

    assignments: list[Assignment] = field(default_factory=list)
    unassigned_heavy: list[ShedCandidate] = field(default_factory=list)
    unassigned_light: list[SpareCapacity] = field(default_factory=list)
    rounds: int = 0
    upward_messages: int = 0
    entries_published: int = 0
    #: Publications lost to injected faults after every retry (their
    #: shed/spare entries simply sit out the round — safe degradation).
    entries_lost: int = 0
    pairings_by_level: Counter[int] = field(default_factory=Counter)

    @property
    def unassigned_load(self) -> float:
        return sum(c.load for c in self.unassigned_heavy)


def deliver_publications(
    published: list[tuple[int, ShedCandidate | SpareCapacity]],
    result: VSAResult,
    rng: np.random.Generator,
    faults: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    fault_stats: FaultRoundStats | None = None,
) -> list[tuple[int, ShedCandidate | SpareCapacity]]:
    """Decide each publication's delivery, in publication order.

    With a ``faults`` injector every publication is a message that may
    be delayed, duplicated (suppressed at the leaf) or dropped; drops
    are retried under ``retry`` with backoff jitter drawn from ``rng``
    and count in ``result.entries_lost`` once the bounds bite.  Returns
    the delivered ``(key, entry)`` pairs in order.  This is the only
    step of a sweep that consumes faults and the retry rng; both round
    kernels deliver through it and then place the keys in their own
    tree.
    """
    if faults is None:
        return published
    policy = retry if retry is not None else RetryPolicy()
    budget = RetryBudget(policy.phase_budget)
    delivered: list[tuple[int, ShedCandidate | SpareCapacity]] = []
    for key, entry in published:
        subject = f"entry:{entry.node_index}:{key}"
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
        delivered.append((key, entry))
    return delivered


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
        published: list[tuple[int, ShedCandidate | SpareCapacity]],
    ) -> VSAResult:
        """Run the sweep over ``(key, entry)`` publications.

        Delivery (faults/rng) and the pure bottom-up sweep run in
        sequence; with an enabled tracer a final ``vsa.sweep`` summary
        event matching the returned result is emitted.
        """
        tracer = self.tracer
        result = VSAResult(entries_published=len(published))
        delivered = deliver_publications(
            published,
            result,
            self.rng,
            faults=self.faults,
            retry=self.retry,
            fault_stats=self.fault_stats,
        )
        self.sweep(self.bucket(delivered), result)
        if tracer is not None and tracer.enabled:
            tracer.event(
                "vsa.sweep",
                entries_published=result.entries_published,
                entries_lost=result.entries_lost,
                pairings=len(result.assignments),
                messages_up=result.upward_messages,
                rounds=result.rounds,
                unassigned_heavy=len(result.unassigned_heavy),
                unassigned_light=len(result.unassigned_light),
            )
        return result

    def bucket(
        self,
        delivered: list[tuple[int, ShedCandidate | SpareCapacity]],
    ) -> dict[int, tuple[list[ShedCandidate], list[SpareCapacity]]]:
        """Resolve delivered publications to their KT leaves, bucketed.

        One :meth:`~repro.ktree.tree.KnaryTree.descend_batch` resolves
        every key; the per-leaf pending buckets (keyed by ``id(leaf)``)
        fill in delivery order.
        """
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        pending: dict[int, tuple[list[ShedCandidate], list[SpareCapacity]]] = {}
        leaves, ordinals = self.tree.descend_batch(
            np.asarray([key for key, _ in delivered], dtype=np.int64)
        )
        for (key, entry), ordinal in zip(delivered, ordinals.tolist()):
            leaf = leaves[ordinal]
            heavy, light = pending.setdefault(id(leaf), ([], []))
            if isinstance(entry, ShedCandidate):
                heavy.append(entry)
            elif isinstance(entry, SpareCapacity):
                light.append(entry)
            else:
                raise BalancerError(f"unknown VSA entry type {type(entry)!r}")
            if tracing:
                assert tracer is not None
                tracer.event(
                    "vsa.publish",
                    key=key,
                    leaf_level=leaf.level,
                    entry_kind=(
                        "shed" if isinstance(entry, ShedCandidate) else "spare"
                    ),
                    node=entry.node_index,
                    load=(
                        entry.load
                        if isinstance(entry, ShedCandidate)
                        else entry.delta
                    ),
                )
        return pending

    def sweep(
        self,
        pending: dict[int, tuple[list[ShedCandidate], list[SpareCapacity]]],
        result: VSAResult,
    ) -> None:
        """Run the bottom-up rendezvous sweep over delivered buckets.

        ``pending`` maps ``id(leaf)`` to the leaf's delivered
        (heavy, light) entry lists, as produced by :meth:`bucket`;
        assignments, leftovers and cost accounting accumulate on
        ``result``.
        """
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled

        def bucket(node_id: int) -> tuple[list[ShedCandidate], list[SpareCapacity]]:
            buck = pending.get(node_id)
            if buck is None:
                buck = ([], [])
                pending[node_id] = buck
            return buck

        # Bottom-up sweep over every materialised node.  Materialisation
        # is frozen now: iterate a snapshot sorted deepest-first.
        nodes = self.tree.nodes_by_level_desc()
        result.rounds = nodes[0].level if nodes else 0
        root = self.tree.root
        for node in nodes:
            buck = pending.pop(id(node), None)
            if buck is None:
                continue
            heavy, light = buck
            is_root = node is root
            if is_root or (len(heavy) + len(light)) >= self.threshold:
                outcome = pair_rendezvous(
                    heavy,
                    light,
                    min_vs_load=self.min_vs_load,
                    level=node.level,
                    strict_heaviest_first=self.strict_heaviest_first,
                )
                result.assignments.extend(outcome.assignments)
                result.pairings_by_level[node.level] += len(outcome.assignments)
                up_heavy, up_light = outcome.leftover_heavy, outcome.leftover_light
                if tracing:
                    assert tracer is not None
                    tracer.event(
                        "vsa.rendezvous",
                        level=node.level,
                        is_root=is_root,
                        heavy_in=len(heavy),
                        light_in=len(light),
                        paired=len(outcome.assignments),
                        leftover_heavy=len(up_heavy),
                        leftover_light=len(up_light),
                    )
            else:
                up_heavy, up_light = heavy, light

            if is_root:
                result.unassigned_heavy.extend(up_heavy)
                result.unassigned_light.extend(up_light)
            elif up_heavy or up_light:
                parent_heavy, parent_light = bucket(id(node.parent))
                parent_heavy.extend(up_heavy)
                parent_light.extend(up_light)
                result.upward_messages += 1

        if pending:  # pragma: no cover - sweep covers all materialised nodes
            raise BalancerError("VSA sweep left undelivered entries")
