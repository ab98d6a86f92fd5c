"""A single node of the K-nary tree."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.idspace import Region

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dht.virtual_server import VirtualServer


class KTNode:
    """One node of the K-nary tree.

    Attributes
    ----------
    region:
        The contiguous identifier-space portion this KT node is
        responsible for.
    level:
        Depth in the tree; the root is level 0.
    parent:
        Parent KT node (``None`` for the root).
    children:
        Materialised children, indexed by child position; positions that
        have not (yet) been materialised hold ``None``.  Empty list on
        leaves.
    host_vs:
        The virtual server the KT node is planted in — the owner of
        ``region.center``.  Refreshed by the tree when the ring changes.
    """

    __slots__ = ("region", "level", "parent", "children", "host_vs", "is_leaf")

    def __init__(
        self,
        region: Region,
        level: int,
        parent: "KTNode | None",
        host_vs: "VirtualServer",
        is_leaf: bool,
        k: int,
    ):
        self.region = region
        self.level = level
        self.parent = parent
        self.host_vs = host_vs
        self.is_leaf = is_leaf
        self.children: list[KTNode | None] = [] if is_leaf else [None] * k

    def materialized_children(self) -> Iterator["KTNode"]:
        """Children that exist in this (possibly lazily-built) tree."""
        for child in self.children:
            if child is not None:
                yield child

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"KTNode(level={self.level}, {kind}, region={self.region!r})"
