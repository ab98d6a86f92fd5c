"""Reference encoders: the plain, whole-input forms of the round witnesses.

The package builds its witnesses incrementally or straight from columns:
the fault and adversary signatures are running hashes fed at append,
:meth:`~repro.core.report.BalanceReport.canonical_digest` writes its
JSON text column by column, and
:meth:`~repro.recovery.journal.JournalRecord.to_line` encodes a record
once and splices its checksum in.  Each function here computes the same
witness the direct way — re-hash the whole log, build the full payload
dict and ``json.dumps`` it with ``sort_keys``, encode a journal line
twice — and the property tests assert the two agree byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Iterable, Mapping, Protocol

import numpy as np

from repro.core.classification import ClassificationResult
from repro.core.records import Assignment
from repro.core.report import BalanceReport

SEPARATORS = (",", ":")


class _Keyed(Protocol):
    def key(self) -> str: ...


def log_signature(log: Iterable[_Keyed]) -> str:
    """SHA-256 over every entry's ``key()`` plus a NUL byte, in order."""
    digest = hashlib.sha256()
    for entry in log:
        digest.update(entry.key().encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def adversary_signature(log: list[Any]) -> str:
    """The adversary's form: empty string for an empty log."""
    return log_signature(log) if log else ""


def digest_payload(report: BalanceReport) -> dict[str, Any]:
    """The round's canonical payload as one dict (keys sorted at dump)."""

    def floats(values: Any) -> list[str]:
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
        keys = [str(i) for i in c.indices.tolist()]
        return {
            "classes": dict(zip(keys, [cls.value for cls in c.row_classes()])),
            "targets": dict(zip(keys, floats(c.row_targets.tolist()))),
        }

    def array_hash(values: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()

    return {
        "config": {
            k: (v.hex() if isinstance(v, float) else v)
            for k, v in sorted(asdict(report.config).items())
        },
        "system_lbi": floats(
            (
                report.system_lbi.total_load,
                report.system_lbi.total_capacity,
                report.system_lbi.min_vs_load,
            )
        ),
        "num_nodes": report.num_nodes,
        "num_virtual_servers": report.num_virtual_servers,
        "node_indices": array_hash(report.node_indices),
        "capacities": array_hash(report.capacities),
        "loads_before": array_hash(report.loads_before),
        "loads_after": array_hash(report.loads_after),
        "classification_before": classification(report.classification_before),
        "classification_after": classification(report.classification_after),
        "aggregation": [
            report.aggregation.tree_height,
            report.aggregation.upward_rounds,
            report.aggregation.downward_rounds,
            report.aggregation.upward_messages,
            report.aggregation.downward_messages,
            report.aggregation.reports,
        ],
        "vsa": {
            "assignments": [assignment(a) for a in report.vsa.assignments],
            "unassigned_heavy": [
                [float(c.load).hex(), c.vs_id, c.node_index]
                for c in report.vsa.unassigned_heavy
            ],
            "unassigned_light": [
                [float(s.delta).hex(), s.node_index]
                for s in report.vsa.unassigned_light
            ],
            "rounds": report.vsa.rounds,
            "upward_messages": report.vsa.upward_messages,
            "entries_published": report.vsa.entries_published,
            "entries_lost": report.vsa.entries_lost,
            "pairings_by_level": sorted(report.vsa.pairings_by_level.items()),
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
            for t in report.transfers
        ],
        "skipped_assignments": [
            assignment(a) for a in report.skipped_assignments
        ],
        "failed_assignments": [assignment(a) for a in report.failed_assignments],
        "fault_stats": {
            k: (v.hex() if isinstance(v, float) else v)
            for k, v in sorted(report.fault_stats.to_dict().items())
        },
        "adversary_stats": {
            k: (v.hex() if isinstance(v, float) else v)
            for k, v in sorted(report.adversary_stats.digest_fields().items())
        },
        "tree_height": report.tree_height,
        "tree_nodes_materialized": report.tree_nodes_materialized,
        "in_flight_before": float(report.in_flight_before).hex(),
        "in_flight_after": float(report.in_flight_after).hex(),
    }


def digest_text(report: BalanceReport) -> str:
    """The payload's sorted-key JSON text."""
    return json.dumps(digest_payload(report), sort_keys=True, separators=SEPARATORS)


def canonical_digest(report: BalanceReport) -> str:
    """SHA-256 of :func:`digest_text`."""
    return hashlib.sha256(digest_text(report).encode("utf-8")).hexdigest()


def journal_checksum(payload: Mapping[str, Any]) -> str:
    """First 16 hex digits of SHA-256 over the payload's sorted JSON."""
    canonical = json.dumps(dict(payload), sort_keys=True, separators=SEPARATORS)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def journal_line(seq: int, kind: str, fields: Mapping[str, Any]) -> str:
    """One journal line, encoded twice: once to checksum, once to write."""
    payload: dict[str, Any] = {"seq": seq, "kind": kind}
    payload.update(fields)
    payload["check"] = journal_checksum(
        {k: v for k, v in payload.items() if k != "check"}
    )
    return json.dumps(payload, sort_keys=True, separators=SEPARATORS)
