"""A small sorted-list container with key-based bisection.

The VSA rendezvous procedure (paper Section 3.4) maintains two sorted
lists at each KT node: light-node advertisements sorted by spare capacity
``delta_L`` and shed-candidate virtual servers sorted by load.  Pairing
needs, repeatedly:

* pop the item with the largest key (heaviest virtual server),
* find the item with the smallest key ``>= x`` (best-fit light node),
* insert items keeping order (remainder reinsertion).

:class:`SortedKeyList` provides exactly those operations in
``O(log n)`` lookup / ``O(n)`` insertion (list-backed, which is faster
than tree structures at the list sizes involved — the threshold is 30).
The balancer's own sweeps pair entry ids with
:func:`repro.core.rendezvous.pair_entries` instead; this container
serves the Rao et al. baseline and the pairing kernel's reference tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Generic, Iterable, Iterator, TypeVar

T = TypeVar("T")


class SortedKeyList(Generic[T]):
    """A list of items kept sorted by ``key(item)``.

    Ties are kept in insertion order (stable).
    """

    __slots__ = ("_key", "_keys", "_items")

    def __init__(
        self, items: Iterable[T] = (), *, key: Callable[[T], float]
    ) -> None:
        self._key = key
        pairs = sorted(((key(it), i) for i, it in enumerate(items)))
        src = list(items)
        self._keys: list[float] = [k for k, _ in pairs]
        self._items: list[T] = [src[i] for _, i in pairs]

    # -- basic container protocol ---------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __getitem__(self, index: int) -> T:
        return self._items[index]

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortedKeyList({self._items!r})"

    # -- mutation --------------------------------------------------------
    def add(self, item: T) -> None:
        """Insert ``item`` keeping the list sorted by key."""
        k = self._key(item)
        idx = bisect_right(self._keys, k)
        self._keys.insert(idx, k)
        self._items.insert(idx, item)

    def pop_max(self) -> T:
        """Remove and return the item with the largest key."""
        if not self._items:
            raise IndexError("pop from empty SortedKeyList")
        self._keys.pop()
        return self._items.pop()

    def pop_min(self) -> T:
        """Remove and return the item with the smallest key."""
        if not self._items:
            raise IndexError("pop from empty SortedKeyList")
        self._keys.pop(0)
        return self._items.pop(0)

    def pop_at(self, index: int) -> T:
        """Remove and return the item at ``index``."""
        self._keys.pop(index)
        return self._items.pop(index)

    # -- queries ----------------------------------------------------------
    def peek_max(self) -> T:
        if not self._items:
            raise IndexError("peek on empty SortedKeyList")
        return self._items[-1]

    def peek_min(self) -> T:
        if not self._items:
            raise IndexError("peek on empty SortedKeyList")
        return self._items[0]

    def index_first_at_least(self, threshold: float) -> int | None:
        """Index of the first item with ``key >= threshold``, or ``None``.

        This implements the best-fit rule: the light node minimising
        ``delta_L`` subject to ``delta_L >= L_{i,k}``.
        """
        idx = bisect_left(self._keys, threshold)
        if idx >= len(self._keys):
            return None
        return idx

    def keys(self) -> list[float]:
        """A copy of the sorted key list (mainly for tests)."""
        return list(self._keys)

    def to_list(self) -> list[T]:
        """A copy of the items in sorted order."""
        return list(self._items)

