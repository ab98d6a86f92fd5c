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

A part's publications travel as one :class:`VSAEntries` table, from
publication through delivery (:func:`deliver_publications` returns
entry ids) to the sweep, whose buckets hold entry ids and whose
rendezvous points pair them with
:func:`~repro.core.rendezvous.pair_entries` (:class:`SlotPairing`).
Record objects are built only for what the :class:`VSAResult` reports:
assignments and the root's unassigned entries.  The sweep runs in
``LoadBalancer._sweep_vsa``; :class:`~repro.core.reference.VSASweep` is
its node-by-node reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.records import Assignment, ShedCandidate, SpareCapacity
from repro.core.rendezvous import pair_entries
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryBudget, RetryPolicy, deliver_with_retry
from repro.faults.stats import FaultRoundStats
from repro.obs.trace import Tracer


@dataclass(frozen=True)
class VSAEntries:
    """One part's VSA publications as columns; row ``i`` is entry id ``i``.

    Rows are in publication order.  ``keys`` are the placement keys the
    entries were published under; ``heavy`` marks shed candidates (the
    other rows are spare-capacity advertisements); ``values`` holds a
    shed entry's load ``L_{i,k}`` or a spare entry's ``delta_L_j``;
    ``nodes`` the publishing node's index; ``vs_ids`` a shed entry's
    virtual server (``-1`` on spare rows).  Sweeps carry entry ids and
    build record objects only for the report.
    """

    keys: np.ndarray
    heavy: np.ndarray
    values: np.ndarray
    nodes: np.ndarray
    vs_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.keys.size)


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
    entries: VSAEntries,
    result: VSAResult,
    rng: np.random.Generator,
    faults: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    fault_stats: FaultRoundStats | None = None,
) -> np.ndarray:
    """Decide each publication's delivery, in publication order.

    With a ``faults`` injector every publication is a message that may
    be delayed, duplicated (suppressed at the leaf) or dropped; drops
    are retried under ``retry`` with backoff jitter drawn from ``rng``
    and count in ``result.entries_lost`` once the bounds bite.  Returns
    the delivered entry ids in order.  This is the only step of a sweep
    that consumes faults and the retry rng; both round kernels deliver
    through it and then place the keys in their own tree.
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


def vsa_publish_events(
    tracer: Tracer,
    entries: VSAEntries,
    delivered: np.ndarray,
    leaf_levels: list[int],
) -> None:
    """Emit one ``vsa.publish`` event per delivered entry, in order;
    ``leaf_levels[j]`` is the level of the leaf ``delivered[j]`` hit."""
    for i, level in zip(delivered.tolist(), leaf_levels):
        tracer.event(
            "vsa.publish",
            key=int(entries.keys[i]),
            leaf_level=level,
            entry_kind="shed" if entries.heavy[i] else "spare",
            node=int(entries.nodes[i]),
            load=float(entries.values[i]),
        )


def vsa_sweep_event(tracer: Tracer, result: VSAResult) -> None:
    """Emit one part's ``vsa.sweep`` summary, matching ``result``."""
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


class SlotPairing:
    """Pairs one sweep's rendezvous slots over an entry table.

    Both sweeps (the reference's object walk and
    :class:`~repro.core.balancer.LoadBalancer`'s frontier sweep) hand
    each pairing slot's id lists to :meth:`pair`, which runs
    :func:`~repro.core.rendezvous.pair_entries` over a per-sweep copy of
    the value column (spare remainders are written back into it) and
    records assignments, per-level counts and, at the root, the settled
    unassigned entries on ``result``.  With an enabled ``tracer`` each
    pairing attempt emits one ``vsa.rendezvous`` event.
    """

    def __init__(
        self,
        entries: VSAEntries,
        result: VSAResult,
        min_vs_load: float,
        strict_heaviest_first: bool,
        tracer: Tracer | None = None,
    ) -> None:
        self.value: list[float] = entries.values.tolist()
        self.nodes: list[int] = entries.nodes.tolist()
        self.vs_ids: list[int] = entries.vs_ids.tolist()
        self.result = result
        self.min_vs_load = min_vs_load
        self.strict = strict_heaviest_first
        self.tracer = tracer if tracer is not None and tracer.enabled else None

    def shed(self, i: int) -> ShedCandidate:
        """Entry ``i`` as the shed record the report carries."""
        return ShedCandidate(
            load=self.value[i], vs_id=self.vs_ids[i], node_index=self.nodes[i]
        )

    def pair(
        self, heavy: list[int], light: list[int], level: int, is_root: bool
    ) -> tuple[list[int], list[int]]:
        """Pair at a slot of KT ``level``; returns the leftover id lists."""
        pairs, up_heavy, up_light = pair_entries(
            heavy, light, self.value, self.min_vs_load, self.strict,
            settle=is_root,
        )
        result = self.result
        nodes = self.nodes
        result.assignments.extend(
            Assignment(
                candidate=self.shed(shed), target_node=nodes[spare], level=level
            )
            for shed, spare in pairs
        )
        result.pairings_by_level[level] += len(pairs)
        if self.tracer is not None:
            self.tracer.event(
                "vsa.rendezvous",
                level=level,
                is_root=is_root,
                heavy_in=len(heavy),
                light_in=len(light),
                paired=len(pairs),
                leftover_heavy=len(up_heavy),
                leftover_light=len(up_light),
            )
        if is_root:
            result.unassigned_heavy.extend(self.shed(i) for i in up_heavy)
            result.unassigned_light.extend(
                SpareCapacity(delta=self.value[i], node_index=nodes[i])
                for i in up_light
            )
        return up_heavy, up_light
