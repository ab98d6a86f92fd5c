"""The per-phase profile a balancing round reports.

:class:`RoundProfile` condenses one round into four
:class:`PhaseProfile` rows — LBI aggregation, classification, VSA,
VST — each carrying wall-clock seconds, the message count the phase put
on the wire, and phase-specific detail (reports merged, pairings per KT
level, load moved over what distance).  It is cheap to build (pure
arithmetic over traces the round already collected, no tracing
required), so :attr:`~repro.core.report.BalanceReport.profile` builds
one for every round.

The message accounting matches the paper's cost model: LBI counts both
tree sweeps, classification is a purely local computation (zero
messages), VSA counts upward forwarding of unpaired entries, VST counts
one transfer message per executed virtual-server move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only (report imports profile)
    from repro.core.report import BalanceReport

#: Canonical phase order of the protocol.
PHASE_ORDER = ("lbi", "classification", "vsa", "vst")


@dataclass(frozen=True)
class PhaseProfile:
    """Cost digest of one protocol phase within one round."""

    name: str  # one of PHASE_ORDER
    seconds: float  # simulator wall-clock spent in the phase
    messages: int  # messages the phase put on the (simulated) wire
    detail: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "messages": self.messages,
            "detail": dict(self.detail),
        }


@dataclass(frozen=True)
class RoundProfile:
    """The four phase profiles of one balancing round, in protocol order."""

    phases: tuple[PhaseProfile, ...]

    def phase(self, name: str) -> PhaseProfile:
        """The profile of phase ``name`` (raises ``KeyError`` if absent)."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds summed over the phases."""
        return sum(p.seconds for p in self.phases)

    @property
    def total_messages(self) -> int:
        """Messages summed over the phases (the round's control+data cost)."""
        return sum(p.messages for p in self.phases)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dict keyed by phase name."""
        return {p.name: p.to_dict() for p in self.phases}

    def table(self) -> str:
        """Fixed-width per-phase cost table (operator console, examples)."""
        header = f"{'phase':<16}{'seconds':>10}{'msgs':>8}  detail"
        rows = [header, "-" * len(header)]
        for p in self.phases:
            detail = " ".join(f"{k}={_fmt(v)}" for k, v in p.detail.items())
            rows.append(f"{p.name:<16}{p.seconds:>10.4f}{p.messages:>8}  {detail}")
        rows.append(
            f"{'total':<16}{self.total_seconds:>10.4f}{self.total_messages:>8}"
        )
        return "\n".join(rows)


def profile_from_report(report: "BalanceReport") -> RoundProfile:
    """Assemble the :class:`RoundProfile` of a completed round.

    Uses only data the round already measured (phase timings, the
    aggregation trace, the VSA result, the transfer records), so it is
    valid whether or not tracing was enabled.
    """
    agg = report.aggregation
    vsa = report.vsa
    seconds = report.phase_seconds
    transfers = report.transfers
    distances = [t.distance for t in transfers if t.has_distance]
    before = report.classification_before.counts()
    phases = (
        PhaseProfile(
            name="lbi",
            seconds=seconds.get("lbi", 0.0),
            messages=agg.total_messages,
            detail={
                "reports": agg.reports,
                "messages_up": agg.upward_messages,
                "messages_down": agg.downward_messages,
                "rounds": agg.total_rounds,
                "tree_height": agg.tree_height,
            },
        ),
        PhaseProfile(
            name="classification",
            seconds=seconds.get("classification", 0.0),
            messages=0,
            detail=dict(before),
        ),
        PhaseProfile(
            name="vsa",
            seconds=seconds.get("vsa", 0.0),
            messages=vsa.upward_messages,
            detail={
                "entries_published": vsa.entries_published,
                "pairings": len(vsa.assignments),
                "unassigned_heavy": len(vsa.unassigned_heavy),
                "unassigned_light": len(vsa.unassigned_light),
                "rounds": vsa.rounds,
            },
        ),
        PhaseProfile(
            name="vst",
            seconds=seconds.get("vst", 0.0),
            messages=len(transfers),
            detail={
                "transfers": len(transfers),
                "skipped": len(report.skipped_assignments),
                "moved_load": report.moved_load,
                "mean_distance": (
                    sum(distances) / len(distances) if distances else math.nan
                ),
            },
        ),
    )
    return RoundProfile(phases=phases)


def _fmt(value: object) -> str:
    """Compact scalar formatting for table cells."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.4g}"
    return str(value)
