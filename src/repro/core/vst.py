"""Phase 4: virtual-server transferring (VST) with cost accounting.

Executing an :class:`~repro.core.records.Assignment` moves the chosen
virtual server from its heavy owner to the assigned light node — on the
ring this is a leave + join with an unchanged identifier, so only the
hosting changes.  When a topology is attached, the transfer cost is the
weighted shortest-path distance between the two nodes' sites, which is
exactly the x-axis of the paper's figures 7 and 8.

Each move runs as a **two-phase commit**
(:class:`TransferTransaction`): ``prepare`` detaches the virtual server
from its source (the in-flight state), ``commit`` attaches it to the
target, and ``rollback`` returns it to the source — or, if the source
died while the server was in flight, to the owner of its ring
successor, mirroring how a storage DHT re-materialises orphaned state.
A transfer aborted by an injected fault, or a ``DHTError`` surfacing
mid-batch, therefore never strands the ring half-mutated: the failing
assignment is rolled back, recorded as failed, and the batch continues.
``assert_loads_conserved`` holds at the end of every batch regardless
of how many transfers aborted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.records import Assignment, assert_loads_conserved
from repro.dht.chord import ChordRing
from repro.dht.churn import crash_node
from repro.dht.node import PhysicalNode
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import BalancerError, DHTError
from repro.faults.injector import FaultInjector
from repro.faults.stats import FaultRoundStats
from repro.obs.trace import Tracer
from repro.topology.routing import DistanceOracle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (recovery -> core)
    from repro.adversary.engine import AdversaryEngine
    from repro.recovery.journal import TransferJournal


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """One executed virtual-server transfer."""

    vs_id: int
    load: float
    source_node: int
    target_node: int
    distance: float  # latency units; NaN when no topology is attached
    level: int  # KT level of the rendezvous that paired it

    @property
    def has_distance(self) -> bool:
        return not math.isnan(self.distance)


class TransferTransaction:
    """Two-phase commit for one virtual-server move.

    States: ``pending`` -> ``prepared`` (server detached, in flight) ->
    ``committed`` | ``rolled_back``.  The protocol invariant is that
    whichever terminal state is reached, the server is hosted by exactly
    one alive node and its load is untouched.
    """

    __slots__ = ("ring", "vs", "source", "target", "state", "journal")

    def __init__(
        self,
        ring: ChordRing,
        vs: VirtualServer,
        source: PhysicalNode,
        target: PhysicalNode,
        journal: "TransferJournal | None" = None,
    ) -> None:
        self.ring = ring
        self.vs = vs
        self.source = source
        self.target = target
        self.state = "pending"
        self.journal = journal

    def _journal_intent(self, kind: str) -> None:
        """Write-ahead the intent record *before* the state mutates."""
        if self.journal is not None:
            self.journal.record(
                kind,
                vs=self.vs.vs_id,
                load=float(self.vs.load).hex(),
                source=self.source.index,
                target=self.target.index,
            )

    def prepare(self) -> None:
        """Detach the server from its source (the in-flight state)."""
        if self.state != "pending":
            raise BalancerError(f"cannot prepare a {self.state} transaction")
        if self.vs.owner is not self.source:
            raise DHTError(
                f"vs {self.vs.vs_id} owned by {self.vs.owner.index}, "
                f"expected {self.source.index}"
            )
        self._journal_intent("prepare")
        self.source.unhost(self.vs)
        self.state = "prepared"

    def commit(self) -> None:
        """Attach the in-flight server to the target node."""
        if self.state != "prepared":
            raise BalancerError(f"cannot commit a {self.state} transaction")
        if not self.target.alive:
            raise DHTError(
                f"target node {self.target.index} died while vs "
                f"{self.vs.vs_id} was in flight"
            )
        self._journal_intent("commit")
        self.target.host(self.vs)
        self.state = "committed"

    def rollback(self) -> None:
        """Return the in-flight server to its source (or rescue it).

        With the source gone mid-flight, the server is adopted by the
        owner of its ring successor — the same peer that would absorb
        its region on a leave — so no load is ever orphaned.
        """
        if self.state != "prepared":
            raise BalancerError(f"cannot roll back a {self.state} transaction")
        self._journal_intent("rollback")
        if self.source.alive:
            self.source.host(self.vs)
        else:
            rescue = self.ring.successor(self.ring.space.wrap(self.vs.vs_id + 1))
            if rescue is self.vs or not rescue.owner.alive:
                raise DHTError(
                    f"no alive node can adopt in-flight vs {self.vs.vs_id}"
                )
            rescue.owner.host(self.vs)
        self.state = "rolled_back"


def _hosted_load(ring: ChordRing) -> float:
    """Total load hosted by the ring's nodes: every server, one pass.

    The conservation guard's own sum, read from the servers rather than
    from any per-node total it checks.
    """
    return sum([vs.load for node in ring.nodes for vs in node.virtual_servers])


def _crash_candidates(ring: ChordRing) -> list[int]:
    """Node indices eligible for an injected crash (never the last node)."""
    return [
        n.index
        for n in ring.alive_nodes
        if len(n.virtual_servers) < ring.num_virtual_servers
    ]


def execute_transfers(
    ring: ChordRing,
    assignments: list[Assignment],
    oracle: DistanceOracle | None = None,
    skipped: list[Assignment] | None = None,
    tracer: Tracer | None = None,
    faults: FaultInjector | None = None,
    failed: list[Assignment] | None = None,
    fault_stats: FaultRoundStats | None = None,
    journal: "TransferJournal | None" = None,
    adversary: "AdversaryEngine | None" = None,
) -> list[TransferRecord]:
    """Apply ``assignments`` to the ring and account their costs.

    Distances are resolved in one batch against the oracle (one Dijkstra
    per distinct source site).  Nodes are looked up by index on the
    ring; a dangling index means the assignment pipeline is corrupt and
    raises :class:`BalancerError`.

    Churn tolerance: an assignment whose endpoints changed *between VSA
    and VST* — the source crashed (its virtual servers moved on), the
    target departed, or the virtual server left the ring — is not an
    error but a casualty of asynchrony; pass a ``skipped`` list to
    collect such assignments instead of raising, mirroring how a real
    deployment simply drops stale pair decisions.

    Atomicity: each assignment runs as a :class:`TransferTransaction`.
    A transfer that aborts — an injected ``transfer_abort`` fault, or a
    :class:`~repro.exceptions.DHTError` surfacing mid-commit (e.g. the
    target died while the server was in flight) — is rolled back and
    appended to ``failed`` (raised when no list was passed), and the
    batch continues with the next assignment instead of stranding the
    ring partially mutated.

    Crash injection: with a ``faults`` injector whose plan budgets
    mid-round crashes, seeded victims are crashed *between* transfers
    of this batch (slot ``k`` = after the ``k``-th transfer); their
    load hands over to ring successors, so conservation still holds.

    Conservation: transfers re-home virtual servers without touching
    their loads, so the ring's total load must be identical before and
    after; the totals are checked via
    :func:`~repro.core.records.assert_loads_conserved` and a violation
    raises :class:`~repro.exceptions.ConservationError`.

    Durability: with a ``journal`` attached, every transaction
    write-aheads its prepare/commit/rollback intent before applying it
    (see :mod:`repro.recovery.journal`); and a plan-scheduled
    ``mid-vst-batch`` :class:`~repro.faults.CrashPoint` kills the whole
    process at a seeded batch position via
    :class:`~repro.exceptions.ProcessCrashError` — recovery is the
    recovery manager's job, nothing here catches it.

    Byzantine reneging: with an ``adversary`` engine attached, a source
    node running the ``renege`` behavior model *prepares* each of its
    transfers and never delivers — the transaction is rolled back
    exactly like an injected abort (counted in ``fault_stats`` as a
    rollback, remembered by the engine for the defense's
    transfer-outcome accounting).  The fault injector's abort stream is
    drawn regardless, so fault decision sequences are unaffected by the
    adversary's presence.
    """
    total_before = _hosted_load(ring)
    node_by_index = {n.index: n for n in ring.nodes}
    records: list[TransferRecord] = []
    pairs: list[tuple[int, int]] = []
    pending: list[tuple[Assignment, int, int]] = []
    tracing = tracer is not None and tracer.enabled
    crash_slots = (
        faults.plan_crash_slots(len(assignments)) if faults is not None else []
    )
    process_crash_slot = (
        faults.process_crash_slot(len(assignments)) if faults is not None else None
    )
    next_slot = 0

    def crash_due(position: int) -> None:
        """Fire every crash whose slot is ``position`` (mid-batch churn)."""
        nonlocal next_slot
        if process_crash_slot is not None and position >= process_crash_slot:
            assert faults is not None
            faults.fire_crash("mid-vst-batch")
        assert faults is not None or next_slot >= len(crash_slots)
        while next_slot < len(crash_slots) and crash_slots[next_slot] <= position:
            next_slot += 1
            assert faults is not None
            victim_index = faults.pick_victim(_crash_candidates(ring))
            if victim_index is None:
                continue
            crash_node(ring, node_by_index[victim_index])
            if fault_stats is not None:
                fault_stats.crashed_nodes.append(victim_index)
            if tracing:
                assert tracer is not None
                tracer.event("vst.crash", node=victim_index, slot=position)

    for position, a in enumerate(assignments):
        crash_due(position)
        source = node_by_index.get(a.candidate.node_index)
        target = node_by_index.get(a.target_node)
        if source is None or target is None:
            raise BalancerError(
                f"assignment references unknown node "
                f"({a.candidate.node_index} -> {a.target_node})"
            )
        try:
            vs = ring.vs(a.candidate.vs_id)
        except DHTError:
            if skipped is not None:
                skipped.append(a)
                if tracing:
                    assert tracer is not None
                    tracer.event(
                        "vst.skip",
                        reason="vs_gone",
                        vs_id=a.candidate.vs_id,
                        source=a.candidate.node_index,
                        target=a.target_node,
                    )
                continue
            raise
        stale = vs.owner is not source or not target.alive or not source.alive
        if stale:
            if skipped is not None:
                skipped.append(a)
                if tracing:
                    assert tracer is not None
                    tracer.event(
                        "vst.skip",
                        reason="stale",
                        vs_id=a.candidate.vs_id,
                        source=a.candidate.node_index,
                        target=a.target_node,
                    )
                continue
            raise BalancerError(
                f"assignment is stale: virtual server {a.candidate.vs_id} owned "
                f"by node {vs.owner.index} (expected {source.index}), "
                f"source alive={source.alive}, target alive={target.alive}"
            )

        txn = TransferTransaction(ring, vs, source, target, journal=journal)
        txn.prepare()
        aborted = faults is not None and faults.abort_transfer(a.candidate.vs_id)
        if adversary is not None and adversary.renege(
            source.index, a.candidate.vs_id
        ):
            aborted = True
        if not aborted:
            try:
                txn.commit()
            except DHTError:
                aborted = True
        if aborted:
            txn.rollback()
            if fault_stats is not None:
                fault_stats.vst_rollbacks += 1
                fault_stats.vst_failed += 1
            if tracing:
                assert tracer is not None
                tracer.event(
                    "vst.rollback",
                    vs_id=a.candidate.vs_id,
                    source=a.candidate.node_index,
                    target=a.target_node,
                )
            if failed is not None:
                failed.append(a)
                continue
            raise BalancerError(
                f"transfer of vs {a.candidate.vs_id} aborted mid-flight "
                f"({a.candidate.node_index} -> {a.target_node}) and no "
                "failed-assignment collector was supplied"
            )
        if oracle is not None and source.site is not None and target.site is not None:
            pairs.append((source.site, target.site))
            pending.append((a, source.index, target.index))
        else:
            records.append(
                TransferRecord(
                    vs_id=a.candidate.vs_id,
                    load=a.candidate.load,
                    source_node=source.index,
                    target_node=target.index,
                    distance=float("nan"),
                    level=a.level,
                )
            )
    crash_due(len(assignments))

    if pending:
        assert oracle is not None
        distances = oracle.distances_between(pairs)
        for (a, src_idx, dst_idx), dist in zip(pending, distances):
            records.append(
                TransferRecord(
                    vs_id=a.candidate.vs_id,
                    load=a.candidate.load,
                    source_node=src_idx,
                    target_node=dst_idx,
                    distance=float(dist),
                    level=a.level,
                )
            )
    if tracing:
        assert tracer is not None
        for r in records:
            tracer.event(
                "vst.transfer",
                vs_id=r.vs_id,
                load=r.load,
                source=r.source_node,
                target=r.target_node,
                distance=r.distance,
                level=r.level,
            )
    total_after = _hosted_load(ring)
    assert_loads_conserved(
        total_before, total_after, context="vst.execute_transfers"
    )
    return records
