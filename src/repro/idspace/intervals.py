"""Sorted disjoint interval sets over the identifier circle.

The incremental balancer needs one primitive the plain :class:`Region`
does not provide efficiently: given a *batch* of dirty regions (the
identifier-space spans whose ownership changed since the last round),
answer ``which of these KT node regions overlap a dirty span?`` for a
whole tree level at once.  :class:`IntervalSet` canonicalises the batch
once — wrapping regions are split at zero, overlapping spans are merged
— and answers a level's overlap queries with one binary search over its
span columns.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

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
        self._starts = np.asarray([s for s, _ in merged], dtype=np.int64)
        self._ends = np.asarray([e for _, e in merged], dtype=np.int64)

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
        return int(self._starts.size)

    def __bool__(self) -> bool:
        return bool(self._starts.size)

    def overlaps(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Which arcs ``[starts, starts + lengths)`` intersect the set.

        The arcs must not wrap (``starts + lengths <= space.size``), as
        K-nary tree regions never do.  The set's spans are sorted and
        disjoint, so their ends ascend too: the first span ending after
        an arc's start is the only candidate, found by one
        ``searchsorted`` over the whole batch.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        n = self._starts.size
        if not n:
            return np.zeros(starts.shape, dtype=bool)
        first = np.searchsorted(self._ends, starts, side="right")
        candidate = self._starts[np.minimum(first, n - 1)]
        return (first < n) & (candidate < starts + lengths) & (lengths > 0)
