"""Half-open arcs ("regions") on the identifier ring.

Both virtual servers and K-nary tree (KT) nodes are responsible for a
contiguous region of the identifier space.  A :class:`Region` is the
half-open, possibly wrapping arc ``[start, start + length)`` on a given
:class:`~repro.idspace.space.IdentifierSpace`.

Representing a region as ``(start, length)`` rather than ``(start, end)``
makes the full ring (``length == size``) and wrap-around arcs unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import RegionError
from repro.idspace.space import IdentifierSpace


def split_bounds(
    start: int, length: int, k: int, index: int, size: int
) -> tuple[int, int]:
    """Raw ``(start, length)`` of part ``index`` of a ``k``-way split.

    The arithmetic of :meth:`Region.split_part` on plain integers (no
    validation): the first ``length % k`` parts take one extra
    identifier, and ``size`` wraps the part's start.
    """
    base, extra = divmod(length, k)
    if index < extra:
        return (start + index * (base + 1)) % size, base + 1
    return (start + extra * (base + 1) + (index - extra) * base) % size, base


@dataclass(frozen=True, slots=True)
class Region:
    """A half-open arc ``[start, start + length)`` on an identifier ring.

    Parameters
    ----------
    space:
        The identifier space the arc lives on.
    start:
        First identifier in the arc.
    length:
        Number of identifiers covered; ``1 <= length <= space.size``.
        ``length == space.size`` denotes the whole ring.
    """

    space: IdentifierSpace
    start: int
    length: int

    def __post_init__(self) -> None:
        self.space.validate(self.start)
        if not isinstance(self.length, int) or not 1 <= self.length <= self.space.size:
            raise RegionError(
                f"region length {self.length!r} out of range [1, {self.space.size}]"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, space: IdentifierSpace) -> "Region":
        """The region covering the whole ring (what the KT root owns)."""
        return cls(space, 0, space.size)

    @classmethod
    def trusted(cls, space: IdentifierSpace, start: int, length: int) -> "Region":
        """Construct without validation (bulk hot path).

        The caller guarantees ``0 <= start < space.size`` and
        ``1 <= length <= space.size`` — true by construction for arcs
        produced by the K-nary split arithmetic, which is the intended
        user: batched descent materialises thousands of child regions
        per level and the per-instance range checks are pure overhead
        there.  Anything else should go through the validating
        constructor.
        """
        region = object.__new__(cls)
        object.__setattr__(region, "space", space)
        object.__setattr__(region, "start", start)
        object.__setattr__(region, "length", length)
        return region

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def end(self) -> int:
        """Exclusive end of the arc (wrapped onto the ring)."""
        return self.space.wrap(self.start + self.length)

    @property
    def is_full_ring(self) -> bool:
        return self.length == self.space.size

    @property
    def fraction(self) -> float:
        """Fraction ``f`` of the identifier space this region owns.

        This is the quantity the paper's load distributions are
        parameterised on (mean ``mu * f``, std ``sigma * sqrt(f)``).
        """
        return self.length / self.space.size

    def contains(self, ident: int) -> bool:
        """Whether identifier ``ident`` falls inside this region."""
        return self.space.in_arc(ident, self.start, self.length)

    def covers(self, other: "Region") -> bool:
        """Whether this region fully covers ``other``.

        This is the paper's KT-leaf rule: a KT node stops splitting when
        its region "is completely covered by that of a virtual server".
        """
        if other.space != self.space:
            raise RegionError("regions live on different identifier spaces")
        if self.is_full_ring:
            return True
        if other.is_full_ring:
            return False
        offset = self.space.distance_cw(self.start, other.start)
        return offset + other.length <= self.length

    @property
    def center(self) -> int:
        """Center point of the region — the KT planting key."""
        return self.space.midpoint(self.start, self.length)

    # ------------------------------------------------------------------
    # Partitioning (K-nary tree construction)
    # ------------------------------------------------------------------
    def split(self, k: int) -> list["Region"]:
        """Partition the region into ``k`` near-equal contiguous parts.

        The parts tile the region exactly; when ``length`` is not a
        multiple of ``k`` the remainder is distributed one identifier at a
        time to the first parts, matching the paper's "K equal parts" in
        integer arithmetic.  Raises :class:`RegionError` if the region has
        fewer than ``k`` identifiers (it can no longer be partitioned).
        """
        if not isinstance(k, int) or k < 2:
            raise RegionError(f"split degree must be an integer >= 2, got {k!r}")
        if self.length < k:
            raise RegionError(
                f"cannot split a region of length {self.length} into {k} parts"
            )
        base, extra = divmod(self.length, k)
        parts: list[Region] = []
        cursor = self.start
        for i in range(k):
            part_len = base + (1 if i < extra else 0)
            parts.append(Region(self.space, cursor, part_len))
            cursor = self.space.wrap(cursor + part_len)
        return parts

    def split_part(self, k: int, index: int) -> "Region":
        """The ``index``-th part of :meth:`split`, computed directly.

        Equivalent to ``self.split(k)[index]`` without constructing the
        other ``k - 1`` parts — the K-nary tree descends one child per
        level, so this is its hot path.
        """
        if not isinstance(k, int) or k < 2:
            raise RegionError(f"split degree must be an integer >= 2, got {k!r}")
        if self.length < k:
            raise RegionError(
                f"cannot split a region of length {self.length} into {k} parts"
            )
        if not 0 <= index < k:
            raise RegionError(f"part index {index} out of range [0, {k})")
        start, length = split_bounds(
            self.start, self.length, k, index, self.space.size
        )
        return Region(self.space, start, length)

    def child_index_for(self, k: int, key: int) -> int:
        """Which of the ``k`` split parts contains ``key``.

        Raises :class:`RegionError` when ``key`` is outside this region.
        """
        if not self.contains(key):
            raise RegionError(f"key {key} not inside {self!r}")
        offset = self.space.distance_cw(self.start, key)
        base, extra = divmod(self.length, k)
        boundary = (base + 1) * extra
        if offset < boundary:
            return offset // (base + 1)
        if base == 0:  # pragma: no cover - length < k rejected upstream
            raise RegionError("region too small to split")
        return extra + (offset - boundary) // base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Region([{self.start}, +{self.length}) of 2^{self.space.bits})"
