"""The result object produced by one load-balancing round.

Also home of :func:`check_conservation`, the round-level runtime guard
for the protocol's load-conservation invariant: a round may *move* load
between nodes but never create or destroy it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.adversary.stats import AdversaryRoundStats
from repro.core.classification import ClassificationResult
from repro.core.config import BalancerConfig
from repro.core.lbi import AggregationTrace
from repro.core.records import (
    CONSERVATION_RTOL,
    Assignment,
    SystemLBI,
    assert_loads_conserved,
)
from repro.core.vsa import VSAResult
from repro.core.vst import TransferRecord
from repro.faults.stats import FaultRoundStats
from repro.obs.profile import RoundProfile
from repro.util.stats import summary, weighted_fraction_within


@dataclass
class BalanceReport:
    """Everything measured during one load-balancing round.

    The per-figure analysis code consumes this object: figures 4-6 read
    the before/after load arrays, figures 7-8 read the transfer records.
    """

    config: BalancerConfig
    system_lbi: SystemLBI
    num_nodes: int
    num_virtual_servers: int
    node_indices: np.ndarray
    capacities: np.ndarray
    loads_before: np.ndarray
    loads_after: np.ndarray
    classification_before: ClassificationResult
    classification_after: ClassificationResult
    aggregation: AggregationTrace
    vsa: VSAResult
    transfers: list[TransferRecord] = field(default_factory=list)
    skipped_assignments: list[Assignment] = field(default_factory=list)
    #: Assignments whose transfer aborted mid-flight and was rolled back
    #: (injected ``transfer_abort`` faults or a ``DHTError`` mid-commit).
    #: Unlike skipped assignments these *started* executing; the rollback
    #: restored the pre-transfer hosting, so conservation still holds.
    failed_assignments: list[Assignment] = field(default_factory=list)
    #: Fault/recovery accounting for the round; all zeros when no fault
    #: plan was attached (natural-churn rollbacks still count here).
    fault_stats: FaultRoundStats = field(default_factory=FaultRoundStats)
    #: Byzantine-adversary accounting for the round; all defaults when
    #: no adversary plan was attached (or the plan is still dormant).
    adversary_stats: AdversaryRoundStats = field(
        default_factory=AdversaryRoundStats
    )
    tree_height: int = 0
    tree_nodes_materialized: int = 0
    #: Load held by transfers already in flight (suspended by a
    #: mid-round partition cut) when the round's before/after snapshots
    #: were taken; :func:`check_conservation` balances the books with
    #: these so a round that parks or re-homes in-flight load still
    #: verifies.  Both are 0.0 outside partition windows.
    in_flight_before: float = 0.0
    in_flight_after: float = 0.0
    #: Wall-clock seconds per phase ("lbi", "classification", "vsa", "vst") —
    #: simulator execution time, not the protocol's simulated time.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-phase cost profile (seconds, messages, phase detail); populated
    #: by the balancer for every round, tracing enabled or not.
    profile: RoundProfile | None = None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def unit_loads_before(self) -> np.ndarray:
        """Load per capacity before balancing (figure 4(a) y-axis)."""
        return self.loads_before / self.capacities

    @property
    def unit_loads_after(self) -> np.ndarray:
        """Load per capacity after balancing (figure 4(b) y-axis)."""
        return self.loads_after / self.capacities

    @property
    def moved_load(self) -> float:
        """Total load moved by executed transfers."""
        return sum(t.load for t in self.transfers)

    @property
    def transfer_distances(self) -> np.ndarray:
        """Distances of transfers that have one (topology attached)."""
        return np.asarray(
            [t.distance for t in self.transfers if t.has_distance], dtype=np.float64
        )

    @property
    def transfer_loads_with_distance(self) -> np.ndarray:
        return np.asarray(
            [t.load for t in self.transfers if t.has_distance], dtype=np.float64
        )

    def moved_load_within(self, hops: float) -> float:
        """Fraction of total moved load transferred within ``hops`` units.

        The paper's headline metric: proximity-aware moves ~67% within 2
        hops on ts5k-large, proximity-ignorant ~13% within 10.
        """
        d = self.transfer_distances
        if d.size == 0:
            return 0.0
        return weighted_fraction_within(d, self.transfer_loads_with_distance, hops)

    @property
    def heavy_before(self) -> int:
        return self.classification_before.counts()["heavy"]

    @property
    def heavy_after(self) -> int:
        return self.classification_after.counts()["heavy"]

    @property
    def heavy_fraction_before(self) -> float:
        return self.heavy_before / self.num_nodes

    # ------------------------------------------------------------------
    def summary_text(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"nodes={self.num_nodes} vs={self.num_virtual_servers} "
            f"mode={self.config.proximity_mode} K={self.config.tree_degree}",
            f"L={self.system_lbi.total_load:.4g} C={self.system_lbi.total_capacity:.4g} "
            f"L/C={self.system_lbi.load_per_capacity:.4g} L_min={self.system_lbi.min_vs_load:.4g}",
            f"heavy: {self.heavy_before} -> {self.heavy_after} "
            f"(before {100 * self.heavy_fraction_before:.1f}%)",
            f"transfers={len(self.transfers)} moved_load={self.moved_load:.4g} "
            f"unassigned_heavy={len(self.vsa.unassigned_heavy)}",
            f"rounds: aggregation={self.aggregation.total_rounds} vsa={self.vsa.rounds} "
            f"tree_height={self.tree_height}",
        ]
        d = self.transfer_distances
        if d.size:
            s = summary(d)
            lines.append(
                f"transfer distance: mean={s.mean:.2f} median={s.median:.2f} "
                f"p95={s.p95:.2f} max={s.maximum:.0f}; "
                f"moved within 2 hops: {100 * self.moved_load_within(2):.1f}%, "
                f"within 10: {100 * self.moved_load_within(10):.1f}%"
            )
        return "\n".join(lines)

    def canonical_digest(self) -> str:
        """SHA-256 over every *protocol* output of the round.

        The digest covers the full round outcome bit-for-bit — config,
        aggregate, load arrays, classifications, every assignment,
        transfer and fault statistic — but deliberately excludes the
        wall-clock measurements (``phase_seconds`` and ``profile``),
        which vary run to run without the protocol behaving differently.
        Two rounds are byte-identical iff their digests match; the
        engine-identity contract (serial == incremental, crashed and
        recovered == uncrashed) is asserted in exactly these terms.
        """

        def floats(values: Any) -> list[str]:
            # float.hex() is exact: two floats share a hex form iff they
            # are the same double, so digests can never collide or split
            # on formatting.
            return [float(v).hex() for v in values]

        def assignment(a: Assignment) -> list[Any]:
            return [
                float(a.candidate.load).hex(),
                a.candidate.vs_id,
                a.candidate.node_index,
                a.target_node,
                a.level,
            ]

        def classification(c: ClassificationResult) -> dict[str, Any]:
            # Keyed by node index as a string; the dump sorts the keys.
            keys = [str(i) for i in c.indices.tolist()]
            return {
                "classes": dict(zip(keys, [cls.value for cls in c.row_classes()])),
                "targets": dict(zip(keys, floats(c.row_targets.tolist()))),
            }

        payload: dict[str, Any] = {
            "config": {
                k: (v.hex() if isinstance(v, float) else v)
                for k, v in sorted(asdict(self.config).items())
            },
            "system_lbi": floats(
                (
                    self.system_lbi.total_load,
                    self.system_lbi.total_capacity,
                    self.system_lbi.min_vs_load,
                )
            ),
            "num_nodes": self.num_nodes,
            "num_virtual_servers": self.num_virtual_servers,
            "node_indices": hashlib.sha256(
                np.ascontiguousarray(self.node_indices).tobytes()
            ).hexdigest(),
            "capacities": hashlib.sha256(
                np.ascontiguousarray(self.capacities).tobytes()
            ).hexdigest(),
            "loads_before": hashlib.sha256(
                np.ascontiguousarray(self.loads_before).tobytes()
            ).hexdigest(),
            "loads_after": hashlib.sha256(
                np.ascontiguousarray(self.loads_after).tobytes()
            ).hexdigest(),
            "classification_before": classification(self.classification_before),
            "classification_after": classification(self.classification_after),
            "aggregation": [
                self.aggregation.tree_height,
                self.aggregation.upward_rounds,
                self.aggregation.downward_rounds,
                self.aggregation.upward_messages,
                self.aggregation.downward_messages,
                self.aggregation.reports,
            ],
            "vsa": {
                "assignments": [assignment(a) for a in self.vsa.assignments],
                "unassigned_heavy": [
                    [float(c.load).hex(), c.vs_id, c.node_index]
                    for c in self.vsa.unassigned_heavy
                ],
                "unassigned_light": [
                    [float(s.delta).hex(), s.node_index]
                    for s in self.vsa.unassigned_light
                ],
                "rounds": self.vsa.rounds,
                "upward_messages": self.vsa.upward_messages,
                "entries_published": self.vsa.entries_published,
                "entries_lost": self.vsa.entries_lost,
                "pairings_by_level": sorted(self.vsa.pairings_by_level.items()),
            },
            "transfers": [
                [
                    t.vs_id,
                    float(t.load).hex(),
                    t.source_node,
                    t.target_node,
                    float(t.distance).hex(),
                    t.level,
                ]
                for t in self.transfers
            ],
            "skipped_assignments": [
                assignment(a) for a in self.skipped_assignments
            ],
            "failed_assignments": [assignment(a) for a in self.failed_assignments],
            "fault_stats": {
                k: (v.hex() if isinstance(v, float) else v)
                for k, v in sorted(self.fault_stats.to_dict().items())
            },
            # Only the adversary's *protocol outcomes* are pinned; the
            # observational counters (audits sampled, envelope notes)
            # are excluded so an armed-but-dormant defense digests
            # identically to a run with no adversary plan at all.
            "adversary_stats": {
                k: (v.hex() if isinstance(v, float) else v)
                for k, v in sorted(self.adversary_stats.digest_fields().items())
            },
            "tree_height": self.tree_height,
            "tree_nodes_materialized": self.tree_nodes_materialized,
            "in_flight_before": float(self.in_flight_before).hex(),
            "in_flight_after": float(self.in_flight_after).hex(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly digest (scalars only; arrays summarised)."""
        return {
            "mode": self.config.proximity_mode,
            "tree_degree": self.config.tree_degree,
            "num_nodes": self.num_nodes,
            "num_virtual_servers": self.num_virtual_servers,
            "heavy_before": self.heavy_before,
            "heavy_after": self.heavy_after,
            "transfers": len(self.transfers),
            "failed_transfers": len(self.failed_assignments),
            "moved_load": self.moved_load,
            "unassigned_heavy": len(self.vsa.unassigned_heavy),
            "aggregation_rounds": self.aggregation.total_rounds,
            "vsa_rounds": self.vsa.rounds,
            "tree_height": self.tree_height,
            "moved_within_2": self.moved_load_within(2),
            "moved_within_10": self.moved_load_within(10),
            "phases": self.profile.to_dict() if self.profile is not None else None,
            "faults": self.fault_stats.to_dict(),
            "adversary": self.adversary_stats.to_dict(),
        }


def check_conservation(
    report: BalanceReport, *, rtol: float = CONSERVATION_RTOL
) -> None:
    """Verify the round described by ``report`` conserved total load.

    Sums the before/after load vectors in index order (both arrays are
    snapshots over the same alive-node list, so the orders match) and
    raises :class:`~repro.exceptions.ConservationError` if the totals
    drifted beyond ``rtol``.  Load parked in flight by a mid-round
    partition cut is accounted on both sides
    (``in_flight_before``/``in_flight_after``), so a round that
    suspends or re-homes transfers still balances.  Called by
    :meth:`repro.app.system.P2PSystem.rebalance` after every round; call
    it directly when driving :class:`~repro.core.balancer.LoadBalancer`
    by hand.
    """
    before = float(np.sum(report.loads_before)) + report.in_flight_before
    after = float(np.sum(report.loads_after)) + report.in_flight_after
    assert_loads_conserved(before, after, context="balance round", rtol=rtol)
