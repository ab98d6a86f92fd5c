"""The result object produced by one load-balancing round.

Also home of :func:`check_conservation`, the round-level runtime guard
for the protocol's load-conservation invariant: a round may *move* load
between nodes but never create or destroy it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.adversary.stats import AdversaryRoundStats
from repro.core.classification import ClassificationResult
from repro.core.config import BalancerConfig
from repro.core.lbi import AggregationTrace
from repro.core.records import (
    CONSERVATION_RTOL,
    Assignment,
    NodeClass,
    SystemLBI,
    assert_loads_conserved,
)
from repro.core.vsa import VSAResult
from repro.core.vst import TransferRecord
from repro.faults.stats import FaultRoundStats
from repro.obs.profile import RoundProfile, profile_from_report
from repro.util.stats import summary, weighted_fraction_within


# ----------------------------------------------------------------------
# Canonical JSON text, member by member
# ----------------------------------------------------------------------
# Every helper returns a JSON text exactly as
# ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` writes
# the value it stands for.  The strings written by hand (node-index
# keys, class names, ``float.hex`` forms) never need escaping, and the
# integers in a record are plain ``int`` (``json`` writes its ``repr``).
# ``float.hex`` is exact: two floats share a hex form iff they are the
# same double, so digests never collide or split on formatting.

#: A row class's JSON string, by row code (see
#: :meth:`~repro.core.classification.ClassificationResult.row_codes`).
_CLASS_JSON = tuple(
    json.dumps(c.value)
    for c in (NodeClass.HEAVY, NodeClass.LIGHT, NodeClass.NEUTRAL)
)


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with
#: the encoder built once.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_object(members: Mapping[str, str]) -> str:
    """An object from already-encoded member texts, keys in sorted order."""
    pairs = [f'"{key}":{members[key]}' for key in sorted(members)]
    return "{" + ",".join(pairs) + "}"


def _json_array(items: list[str]) -> str:
    return "[" + ",".join(items) + "]"


def _array_hash(values: np.ndarray) -> str:
    """A column's SHA-256, as a JSON string."""
    digest = hashlib.sha256(np.ascontiguousarray(values).tobytes())
    return f'"{digest.hexdigest()}"'


def _hex_floats(fields: Mapping[str, Any]) -> dict[str, Any]:
    return {
        k: (v.hex() if isinstance(v, float) else v) for k, v in fields.items()
    }


def _assignments_json(assignments: Sequence[Assignment]) -> str:
    return _json_array(
        [
            f'["{float(a.candidate.load).hex()}",{a.candidate.vs_id},'
            f"{a.candidate.node_index},{a.target_node},{a.level}]"
            for a in assignments
        ]
    )


def _classification_json(c: ClassificationResult) -> str:
    """``{"classes": {...}, "targets": {...}}``, keyed by ``str(index)``.

    A sorted dump orders the keys as strings (``"10"`` before ``"9"``),
    so the rows are written in that order; node indices are unique.
    """
    keys = list(map(str, c.indices.tolist()))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    codes = c.row_codes().tolist()
    column = np.asarray(c.row_targets, dtype=np.float64)
    targets = list(map(float.hex, column.tolist()))
    classes = ",".join([f'"{keys[r]}":{_CLASS_JSON[codes[r]]}' for r in order])
    hexes = ",".join([f'"{keys[r]}":"{targets[r]}"' for r in order])
    return f'{{"classes":{{{classes}}},"targets":{{{hexes}}}}}'


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
    #: simulator execution time, not the protocol's simulated time; each
    #: is the phase span's ``seconds`` (summed over partition components).
    phase_seconds: dict[str, float] = field(default_factory=dict)

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
    def profile(self) -> RoundProfile:
        """Per-phase cost profile (seconds, messages, phase detail)."""
        return profile_from_report(self)

    @property
    def moved_load(self) -> float:
        """Total load moved by executed transfers (``0.0`` with none)."""
        return sum((t.load for t in self.transfers), 0.0)

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
        wall-clock measurements (``phase_seconds`` and the ``profile``
        built on them), which vary run to run without the protocol
        behaving differently.
        Two rounds are byte-identical iff their digests match; the
        engine-identity contract (serial == incremental, crashed and
        recovered == uncrashed) is asserted in exactly these terms.
        The hashed bytes are :meth:`canonical_text`.
        """
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def canonical_text(self) -> str:
        """The JSON text :meth:`canonical_digest` hashes.

        Sorted keys, no whitespace, floats as ``float.hex``, load and
        index arrays as their SHA-256.  It is written member by member:
        the per-node sections straight from their columns, the small
        ones through ``json``.
        """
        vsa = self.vsa
        aggregation = self.aggregation
        members = {
            "config": _dumps(_hex_floats(asdict(self.config))),
            "system_lbi": _dumps(
                [
                    float(self.system_lbi.total_load).hex(),
                    float(self.system_lbi.total_capacity).hex(),
                    float(self.system_lbi.min_vs_load).hex(),
                ]
            ),
            "num_nodes": _dumps(self.num_nodes),
            "num_virtual_servers": _dumps(self.num_virtual_servers),
            "node_indices": _array_hash(self.node_indices),
            "capacities": _array_hash(self.capacities),
            "loads_before": _array_hash(self.loads_before),
            "loads_after": _array_hash(self.loads_after),
            "classification_before": _classification_json(
                self.classification_before
            ),
            "classification_after": _classification_json(
                self.classification_after
            ),
            "aggregation": _dumps(
                [
                    aggregation.tree_height,
                    aggregation.upward_rounds,
                    aggregation.downward_rounds,
                    aggregation.upward_messages,
                    aggregation.downward_messages,
                    aggregation.reports,
                ]
            ),
            "vsa": _json_object(
                {
                    "assignments": _assignments_json(vsa.assignments),
                    "unassigned_heavy": _json_array(
                        [
                            f'["{float(c.load).hex()}",{c.vs_id},'
                            f"{c.node_index}]"
                            for c in vsa.unassigned_heavy
                        ]
                    ),
                    "unassigned_light": _json_array(
                        [
                            f'["{float(s.delta).hex()}",{s.node_index}]'
                            for s in vsa.unassigned_light
                        ]
                    ),
                    "rounds": _dumps(vsa.rounds),
                    "upward_messages": _dumps(vsa.upward_messages),
                    "entries_published": _dumps(vsa.entries_published),
                    "entries_lost": _dumps(vsa.entries_lost),
                    "pairings_by_level": _dumps(
                        sorted(vsa.pairings_by_level.items())
                    ),
                }
            ),
            "transfers": _json_array(
                [
                    f'[{t.vs_id},"{float(t.load).hex()}",{t.source_node},'
                    f'{t.target_node},"{float(t.distance).hex()}",{t.level}]'
                    for t in self.transfers
                ]
            ),
            "skipped_assignments": _assignments_json(self.skipped_assignments),
            "failed_assignments": _assignments_json(self.failed_assignments),
            "fault_stats": _dumps(_hex_floats(self.fault_stats.to_dict())),
            # Only the adversary's *protocol outcomes* are pinned; the
            # observational counters (audits sampled, envelope notes)
            # are excluded so an armed-but-dormant defense digests
            # identically to a run with no adversary plan at all.
            "adversary_stats": _dumps(
                _hex_floats(self.adversary_stats.digest_fields())
            ),
            "tree_height": _dumps(self.tree_height),
            "tree_nodes_materialized": _dumps(self.tree_nodes_materialized),
            "in_flight_before": f'"{float(self.in_flight_before).hex()}"',
            "in_flight_after": f'"{float(self.in_flight_after).hex()}"',
        }
        return _json_object(members)

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
            "phases": self.profile.to_dict(),
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
