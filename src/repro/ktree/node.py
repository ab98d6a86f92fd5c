"""A single node of the K-nary tree."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.idspace import IdentifierSpace, Region
from repro.idspace.region import split_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dht.virtual_server import VirtualServer


class KTNode:
    """One node of the K-nary tree.

    Attributes
    ----------
    level:
        Depth in the tree; the root is level 0.
    parent:
        Parent KT node (``None`` for the root).
    rank:
        Position among the parent's children (0 for the root).
    children:
        Materialised children, indexed by child position; positions that
        have not (yet) been materialised hold ``None``.  An immutable
        tuple (empty on leaves, shared), replaced by :meth:`set_child`.
    host_vs:
        The virtual server the KT node is planted in — the owner of
        ``region.center``.  Refreshed by the tree when the ring changes.
    slot:
        Position in the owning tree's
        :class:`~repro.ktree.index.TreeIndex`, assigned when the tree
        materialises the node (``-1`` only until then).  A pruned
        node's slot is retired, never reused.

    A node stores no region of its own: :attr:`region` derives it from
    the root's by splitting at each rank on the path, so a persistent
    tree of tens of thousands of nodes carries no per-node
    :class:`~repro.idspace.Region` or boundary integers.  The tree's
    walks carry regions along instead of asking each node.
    """

    __slots__ = (
        "level", "parent", "rank", "children", "host_vs", "is_leaf", "slot",
    )

    def __init__(
        self,
        level: int,
        parent: "KTNode | None",
        rank: int,
        host_vs: "VirtualServer",
        is_leaf: bool,
        k: int,
    ):
        self.level = level
        self.parent = parent
        self.rank = rank
        self.host_vs = host_vs
        self.is_leaf = is_leaf
        self.children: tuple[KTNode | None, ...] = (
            () if is_leaf else (None,) * k
        )
        self.slot = -1

    def set_child(self, index: int, child: "KTNode") -> None:
        """Attach ``child`` at position ``index``."""
        children = self.children
        self.children = children[:index] + (child,) + children[index + 1 :]

    @property
    def region(self) -> Region:
        """The contiguous identifier-space portion this node is responsible for."""
        ranks: list[int] = []
        node: KTNode = self
        while node.parent is not None:
            ranks.append(node.rank)
            node = node.parent
        if not isinstance(node, KTRoot):
            raise TypeError("KT node does not descend from a KTRoot")
        size = node.space.size
        start, length = 0, size
        for rank in reversed(ranks):
            start, length = split_bounds(start, length, node.k, rank, size)
        return Region.trusted(node.space, start, length)

    def materialized_children(self) -> Iterator["KTNode"]:
        """Children that exist in this (possibly lazily-built) tree."""
        for child in self.children:
            if child is not None:
                yield child

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"KTNode(level={self.level}, {kind}, region={self.region!r})"


class KTRoot(KTNode):
    """The root: owns the whole identifier ``space`` and knows the degree ``k``."""

    __slots__ = ("space", "k")

    def __init__(
        self,
        space: IdentifierSpace,
        host_vs: "VirtualServer",
        is_leaf: bool,
        k: int,
    ):
        super().__init__(0, None, 0, host_vs, is_leaf, k)
        self.space = space
        self.k = k
