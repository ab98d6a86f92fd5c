"""Record types exchanged by the load-balancing protocol.

These model the wire-level tuples of the paper:

* ``LBIRecord`` — the per-node report ``<L_i, C_i, L_{i,min}>``;
* ``SystemLBI`` — the root aggregate ``<L, C, L_min>``;
* ``ShedCandidate`` — a heavy node's ``<L_{i,k}, v_{i,k}, ip_addr(i)>``;
* ``SpareCapacity`` — a light node's ``<delta_L_j, ip_addr(j)>``;
* ``Assignment`` — a paired VSA decision sent to both endpoints.

The scalar conservation guard :func:`assert_loads_conserved` lives here
too: it is the leaf-level check behind the protocol invariant that
VSA/VST *move* load without creating or destroying it, and ``records``
is the one core module with no intra-core imports, so every phase can
use it without cycles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.exceptions import ConservationError

#: Default relative tolerance for load-conservation checks.  Transfers
#: subtract and re-add the same float quantities along different orders,
#: so totals agree only to rounding; 1e-9 relative is ~1e6 ULPs of
#: headroom at double precision while still catching any real leak
#: (the smallest object load is ~1e-5 of a typical system load).
CONSERVATION_RTOL = 1e-9


def assert_loads_conserved(
    before: float,
    after: float,
    *,
    context: str,
    rtol: float = CONSERVATION_RTOL,
) -> None:
    """Raise :class:`ConservationError` unless ``after`` ≈ ``before``.

    ``context`` names the operation being checked (it prefixes the error
    message, e.g. ``"vst.execute_transfers"``).  The comparison is
    ``math.isclose`` with relative tolerance ``rtol`` and an absolute
    floor of the same magnitude, so exact-zero totals compare clean.
    """
    if math.isclose(before, after, rel_tol=rtol, abs_tol=rtol):
        return
    raise ConservationError(
        f"{context}: load not conserved: total was {before!r} before and "
        f"{after!r} after (drift {after - before:+.6g}, rtol {rtol:g})"
    )


class NodeClass(enum.Enum):
    """Classification of a DHT node (Section 3.3)."""

    HEAVY = "heavy"
    LIGHT = "light"
    NEUTRAL = "neutral"


@dataclass(frozen=True, slots=True)
class LBIRecord:
    """Per-node load-balancing information ``<L_i, C_i, L_{i,min}>``."""

    load: float
    capacity: float
    min_vs_load: float

    def __post_init__(self) -> None:
        if self.load < 0 or self.capacity <= 0 or self.min_vs_load < 0:
            raise ValueError(f"invalid LBI record {self!r}")

    def merge(self, other: "LBIRecord") -> "LBIRecord":
        """Aggregate two reports: sum loads and capacities, min of minima."""
        return LBIRecord(
            load=self.load + other.load,
            capacity=self.capacity + other.capacity,
            min_vs_load=min(self.min_vs_load, other.min_vs_load),
        )


@dataclass(frozen=True, slots=True)
class SystemLBI:
    """The root aggregate ``<L, C, L_min>`` disseminated to every node."""

    total_load: float
    total_capacity: float
    min_vs_load: float

    def __post_init__(self) -> None:
        if self.total_capacity <= 0:
            raise ValueError("system capacity must be positive")
        if self.total_load < 0 or self.min_vs_load < 0:
            raise ValueError("loads must be non-negative")

    @property
    def load_per_capacity(self) -> float:
        """System-wide load/capacity ratio ``L / C``."""
        return self.total_load / self.total_capacity

    @classmethod
    def from_record(cls, record: LBIRecord) -> "SystemLBI":
        return cls(
            total_load=record.load,
            total_capacity=record.capacity,
            min_vs_load=record.min_vs_load,
        )


@dataclass(frozen=True, slots=True)
class ShedCandidate:
    """A virtual server a heavy node wants to shed.

    ``load`` is the virtual server's load ``L_{i,k}``, ``vs_id`` its ring
    identifier and ``node_index`` the (simulated IP address of the)
    shedding physical node.
    """

    load: float
    vs_id: int
    node_index: int

    def __post_init__(self) -> None:
        if self.load < 0:
            raise ValueError("shed candidate load must be non-negative")


@dataclass(frozen=True, slots=True)
class SpareCapacity:
    """A light node's advertised spare capacity ``delta_L_j = T_j - L_j``."""

    delta: float
    node_index: int

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("spare capacity must be non-negative")


@dataclass(frozen=True, slots=True)
class Assignment:
    """A paired VSA decision: move ``candidate``'s VS to ``target_node``.

    ``level`` records the K-nary tree level of the rendezvous point that
    made the pairing (root = 0); proximity-aware placement should pair
    most assignments deep in the tree (large ``level``), which the
    analysis layer correlates with transfer distance.
    """

    candidate: ShedCandidate
    target_node: int
    level: int
