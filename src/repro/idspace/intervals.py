"""Sorted disjoint interval sets over the identifier circle.

The incremental balancer needs one primitive the plain :class:`Region`
does not provide efficiently: given a *batch* of dirty regions (the
identifier-space spans whose ownership changed since the last round),
answer ``does this KT node's region overlap any dirty span?`` in
``O(log s)`` instead of ``O(s)``.  :class:`IntervalSet` canonicalises
the batch once — wrapping regions are split at zero, overlapping spans
are merged — and answers overlap queries by binary search.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from repro.idspace.region import Region
from repro.idspace.space import IdentifierSpace


class IntervalSet:
    """An immutable union of half-open ``[start, end)`` identifier ranges.

    Intervals are stored unwrapped (``0 <= start < end <= space.size``);
    a region crossing zero contributes two linear pieces.  Construction
    sorts and merges, so queries see a minimal sorted disjoint list.
    """

    __slots__ = ("space", "_starts", "_ends")

    def __init__(
        self, space: IdentifierSpace, intervals: Iterable[tuple[int, int]]
    ) -> None:
        self.space = space
        merged: list[list[int]] = []
        for start, end in sorted(intervals):
            if start >= end:
                continue
            if merged and start <= merged[-1][1]:
                if end > merged[-1][1]:
                    merged[-1][1] = end
            else:
                merged.append([start, end])
        self._starts = [s for s, _ in merged]
        self._ends = [e for _, e in merged]

    @classmethod
    def from_regions(
        cls, space: IdentifierSpace, regions: Sequence[Region]
    ) -> "IntervalSet":
        """Canonicalise ``regions`` (possibly wrapping) into one set."""
        pieces: list[tuple[int, int]] = []
        for region in regions:
            start, length = region.start, region.length
            if start + length <= space.size:
                pieces.append((start, start + length))
            else:
                pieces.append((start, space.size))
                pieces.append((0, start + length - space.size))
        return cls(space, pieces)

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def _overlaps_linear(self, start: int, end: int) -> bool:
        """Overlap test against one unwrapped ``[start, end)`` range."""
        if start >= end:
            return False
        idx = bisect_right(self._starts, start)
        if idx > 0 and self._ends[idx - 1] > start:
            return True
        return idx < len(self._starts) and self._starts[idx] < end

    def contains(self, ident: int) -> bool:
        """Whether ``ident`` lies inside any interval of the set."""
        return self._overlaps_linear(ident, ident + 1)

    def overlaps_region(self, region: Region) -> bool:
        """Whether ``region`` (possibly wrapping) intersects the set."""
        return self.overlaps(region.start, region.length)

    def overlaps(self, start: int, length: int) -> bool:
        """Whether the arc ``[start, start + length)`` intersects the set."""
        if not self._starts:
            return False
        size = self.space.size
        if start + length <= size:
            return self._overlaps_linear(start, start + length)
        return self._overlaps_linear(start, size) or self._overlaps_linear(
            0, start + length - size
        )
