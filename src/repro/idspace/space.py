"""The circular identifier space underlying a DHT.

A :class:`IdentifierSpace` models the ring ``Z / 2^bits`` that Chord hashes
nodes and objects onto.  All region and distance computations in the
library are expressed against an instance of this class so that tests can
exercise tiny rings (e.g. 8 identifiers) while experiments use the paper's
32-bit space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import IdentifierSpaceError


@dataclass(frozen=True, slots=True)
class IdentifierSpace:
    """A modular identifier space of size ``2**bits``.

    Parameters
    ----------
    bits:
        Width of identifiers in bits.  The paper uses 32.

    Examples
    --------
    >>> space = IdentifierSpace(bits=4)
    >>> space.size
    16
    >>> space.distance_cw(14, 2)
    4
    """

    bits: int = 32

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or self.bits < 1:
            raise IdentifierSpaceError(f"bits must be a positive integer, got {self.bits!r}")
        if self.bits > 256:
            raise IdentifierSpaceError(f"bits={self.bits} is unreasonably large (max 256)")

    @property
    def size(self) -> int:
        """Number of identifiers on the ring (``2**bits``)."""
        return 1 << self.bits

    def contains(self, ident: int) -> bool:
        """Return whether ``ident`` is a valid identifier on this ring."""
        return isinstance(ident, int) and 0 <= ident < self.size

    def validate(self, ident: int) -> int:
        """Return ``ident`` unchanged, raising if it is out of range."""
        if not self.contains(ident):
            raise IdentifierSpaceError(
                f"identifier {ident!r} out of range for a {self.bits}-bit space"
            )
        return ident

    def wrap(self, value: int) -> int:
        """Reduce an arbitrary integer onto the ring."""
        return value % self.size

    def distance_cw(self, start: int, end: int) -> int:
        """Clockwise (increasing-id) distance from ``start`` to ``end``.

        ``distance_cw(a, a) == 0``; the result is in ``[0, size)``.
        """
        self.validate(start)
        self.validate(end)
        return (end - start) % self.size

    def in_arc(self, ident: int, start: int, length: int) -> bool:
        """Return whether ``ident`` lies in the half-open arc ``[start, start+length)``.

        ``length`` may be 0 (empty arc) up to ``size`` (the whole ring).
        """
        self.validate(ident)
        self.validate(start)
        if not 0 <= length <= self.size:
            raise IdentifierSpaceError(f"arc length {length} out of range [0, {self.size}]")
        if length == 0:
            return False
        if length == self.size:
            return True
        return self.distance_cw(start, ident) < length

    def midpoint(self, start: int, length: int) -> int:
        """Center point of the arc ``[start, start+length)``.

        This is the rule the paper uses to derive the DHT key at which a
        K-nary tree node is planted: "taking the center point of its
        responsible region".
        """
        self.validate(start)
        if not 1 <= length <= self.size:
            raise IdentifierSpaceError(f"arc length {length} out of range [1, {self.size}]")
        return self.wrap(start + length // 2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IdentifierSpace(bits={self.bits})"
