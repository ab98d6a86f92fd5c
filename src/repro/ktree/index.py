"""A struct-of-arrays index over a persistent K-nary tree.

:class:`TreeIndex` assigns every materialised :class:`~repro.ktree.node.KTNode`
a stable integer *slot* and mirrors the tree's linkage into contiguous
NumPy arrays (``parent``, ``level``, ``child_rank``, ``alive``,
``is_leaf``).  The incremental balancer folds LBI aggregates and sweeps
VSA buckets over slots instead of objects, which is what makes its hot
paths vectorisable:

* *Stamp walks* (:meth:`stamp_paths`) mark the union of root-to-leaf
  paths touched in the current round.  The stamped slot set is exactly
  the node set a from-scratch lazily-built tree would materialise for
  the same keys, so the object walk's message/height accounting can be
  reproduced from the stamps alone.
* *Leaf directory* (:meth:`resolve_leaves`) answers which materialised
  leaf owns each key with one ``searchsorted`` over the live leaves'
  region starts.  The directory is patched from the same
  :meth:`drop` / :meth:`set_leaf` calls that keep :attr:`alive` and
  :attr:`is_leaf` current, so a lookup never returns a pruned slot or
  one that has since split.

A pruned node's slot is retired (``alive`` false, ``nodes[slot]`` is
``None``) and not handed out again.  Every key resolves afresh each
round, so nothing outside the index holds a slot across a refresh: a
retired slot is dead weight, not a hazard.
"""

from __future__ import annotations

import numpy as np

from repro.dht.chord import ChordRing
from repro.exceptions import TreeError
from repro.idspace.region import split_bounds
from repro.ktree.node import KTNode
from repro.ktree.tree import KnaryTree, leaf_rule


class TreeIndex:
    """Slot registry and linkage arrays for one :class:`KnaryTree`.

    Parameters
    ----------
    tree:
        The tree to index.  The root is registered eagerly as slot 0;
        every other node registers lazily on first :meth:`slot` lookup
        (ancestor chains register root-down so ``parent[slot]`` is
        always valid).
    """

    __slots__ = (
        "tree",
        "nodes",
        "_foreign",
        "_size",
        "_capacity",
        "parent",
        "level",
        "child_rank",
        "alive",
        "is_leaf",
        "start",
        "length",
        "_stamp",
        "_stamp_id",
        "_dir_starts",
        "_dir_ends",
        "_dir_slots",
        "_dir_pending",
    )

    #: Pending-patch flood valve: above ``max(64, len(directory) // 8)``
    #: dirty slots the batched splice costs more than a fresh sort.
    DIR_PATCH_FLOOR = 64

    def __init__(self, tree: KnaryTree, capacity: int = 1024) -> None:
        self.tree = tree
        self.nodes: list[KTNode | None] = []
        #: Slots of nodes whose ``slot`` attribute another index over the
        #: same tree claimed first (a twin index; empty in the engine).
        self._foreign: dict[int, int] = {}
        self._size = 0
        self._capacity = max(int(capacity), 16)
        # Slot-valued and small-integer columns are int32 (a persistent
        # tree holds tens of thousands of slots); regions need int64.
        self.parent = np.full(self._capacity, -1, dtype=np.int32)
        self.level = np.zeros(self._capacity, dtype=np.int32)
        self.child_rank = np.zeros(self._capacity, dtype=np.int32)
        self.alive = np.zeros(self._capacity, dtype=bool)
        self.is_leaf = np.zeros(self._capacity, dtype=bool)
        self.start = np.zeros(self._capacity, dtype=np.int64)
        self.length = np.zeros(self._capacity, dtype=np.int64)
        self._stamp = np.zeros(self._capacity, dtype=np.int32)
        self._stamp_id = 0
        # Sorted leaf directory (lazily built, incrementally patched;
        # see resolve_leaves).  ``_dir_pending`` holds slots whose leaf
        # membership may have changed since the directory was last
        # consistent; they are spliced in/out in one batched pass at the
        # next resolve instead of invalidating the whole sort.
        self._dir_starts: np.ndarray | None = None
        self._dir_ends: np.ndarray | None = None
        self._dir_slots: np.ndarray | None = None
        self._dir_pending: set[int] = set()
        self._register(tree.root, parent_slot=-1, rank=0)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        new_cap = self._capacity * 3 // 2
        for name in (
            "parent",
            "level",
            "child_rank",
            "alive",
            "is_leaf",
            "start",
            "length",
            "_stamp",
        ):
            old = getattr(self, name)
            fresh = np.full(new_cap, -1 if name == "parent" else 0, dtype=old.dtype)
            fresh[: self._capacity] = old
            setattr(self, name, fresh)
        self._capacity = new_cap

    def _register(self, node: KTNode, parent_slot: int, rank: int) -> int:
        # Integer slot-count comparison; the rule keys on the "capacity"
        # name, but no float is involved.
        if self._size == self._capacity:  # lint: disable=no-float-equality
            self._grow()
        slot = self._size
        self._size += 1
        self.nodes.append(node)
        if node.slot < 0:
            node.slot = slot
        else:
            self._foreign[id(node)] = slot
        self.parent[slot] = parent_slot
        self.level[slot] = node.level
        self.child_rank[slot] = rank
        self.alive[slot] = True
        self.is_leaf[slot] = node.is_leaf
        if parent_slot < 0:
            start, length = 0, self.tree.ring.space.size
        else:
            start, length = split_bounds(
                int(self.start[parent_slot]),
                int(self.length[parent_slot]),
                self.tree.k,
                rank,
                self.tree.ring.space.size,
            )
        self.start[slot] = start
        self.length[slot] = length
        if node.is_leaf and self._dir_starts is not None:
            self._dir_pending.add(slot)
        return slot

    def slot(self, node: KTNode) -> int:
        """The slot of ``node``, registering its ancestor chain if new."""
        chain: list[KTNode] = []
        current: KTNode | None = node
        while current is not None:
            slot = self.slot_if_registered(current)
            if slot is not None:
                break
            chain.append(current)
            current = current.parent
        else:
            raise TreeError("node does not descend from the indexed root")
        for item in reversed(chain):
            assert item.parent is not None
            slot = self._register(item, parent_slot=slot, rank=item.rank)
        return slot

    def slot_if_registered(self, node: KTNode) -> int | None:
        """The slot of ``node`` if it is registered here, else ``None``.

        Unlike :meth:`slot` this never registers anything — safe to call
        with nodes the tree has already detached (delta bookkeeping).
        """
        slot = node.slot
        if 0 <= slot < self._size and self.nodes[slot] is node:
            return slot
        return self._foreign.get(id(node)) if self._foreign else None

    def node_at(self, slot: int) -> KTNode:
        """The live node registered at ``slot``."""
        node = self.nodes[slot]
        if node is None:
            raise TreeError(f"slot {slot} was pruned")
        return node

    # ------------------------------------------------------------------
    # Maintenance (driven by KnaryTree.refresh_dirty deltas)
    # ------------------------------------------------------------------
    def drop(self, node: KTNode) -> None:
        """Retire a pruned node's slot (it is not handed out again)."""
        slot = self.slot_if_registered(node)
        if slot is None:
            return
        self._foreign.pop(id(node), None)
        self.nodes[slot] = None
        self.alive[slot] = False
        self.is_leaf[slot] = False
        if self._dir_starts is not None:
            self._dir_pending.add(slot)

    def set_leaf(self, node: KTNode, flag: bool) -> None:
        """Record a leaf-ness flip for ``node`` if it is registered."""
        slot = self.slot_if_registered(node)
        if slot is not None:
            self.is_leaf[slot] = flag
            if self._dir_starts is not None:
                self._dir_pending.add(slot)

    # ------------------------------------------------------------------
    # Batch key resolution
    # ------------------------------------------------------------------
    def _rebuild_directory(self) -> np.ndarray:
        live = np.flatnonzero(
            self.alive[: self._size] & self.is_leaf[: self._size]
        )
        raw = self.start[live]
        order = np.argsort(raw, kind="stable")
        starts = raw[order]
        self._dir_starts = starts
        self._dir_ends = starts + self.length[live][order]
        self._dir_slots = live[order]
        self._dir_pending.clear()
        return starts

    def _patch_directory(self) -> np.ndarray:
        """Splice the pending slots in/out of the sorted leaf directory.

        Self-correcting rather than event-ordered: every pending slot is
        first removed from the directory, then re-inserted iff it is a
        live leaf *now* — so a slot that flipped twice between resolves
        lands in the state the flag arrays describe.  Leaf regions tile
        the ring disjointly, so region starts are unique and one batched
        ``searchsorted`` + ``np.insert`` keeps the order strict.
        """
        starts = self._dir_starts
        slots_arr = self._dir_slots
        assert starts is not None and slots_arr is not None
        assert self._dir_ends is not None
        pending = np.fromiter(
            self._dir_pending, count=len(self._dir_pending), dtype=np.int64
        )
        self._dir_pending.clear()
        if pending.size > max(self.DIR_PATCH_FLOOR, slots_arr.size // 8):
            return self._rebuild_directory()
        stale = np.isin(slots_arr, pending)
        if stale.any():
            keep = ~stale
            starts = starts[keep]
            slots_arr = slots_arr[keep]
            self._dir_ends = self._dir_ends[keep]
        fresh = pending[self.alive[pending] & self.is_leaf[pending]]
        if fresh.size:
            raw = self.start[fresh]
            order = np.argsort(raw, kind="stable")
            fresh = fresh[order]
            raw = raw[order]
            pos = np.searchsorted(starts, raw, side="left")
            starts = np.insert(starts, pos, raw)
            slots_arr = np.insert(slots_arr, pos, fresh)
            self._dir_ends = np.insert(
                self._dir_ends, pos, raw + self.length[fresh]
            )
        self._dir_starts = starts
        self._dir_slots = slots_arr
        return starts

    def resolve_leaves(self, keys: np.ndarray) -> np.ndarray:
        """Slots of the *already materialised* leaves owning ``keys``.

        Returns one slot per key, or ``-1`` where no materialised leaf
        contains the key (the caller descends the tree for those).  Works
        off a sorted directory of live leaf regions, built lazily and
        patched in place when leaves register, prune or flip (one
        batched splice per resolve, with a flood valve back to a full
        rebuild); tree-node regions never wrap (splits of ``[0, size)``
        stay within it) so a binary search on the region starts
        suffices.
        """
        starts = self._dir_starts
        if starts is None:
            starts = self._rebuild_directory()
        elif self._dir_pending:
            starts = self._patch_directory()
        assert self._dir_ends is not None and self._dir_slots is not None
        if not starts.size:
            return np.full(len(keys), -1, dtype=np.int64)
        pos = np.searchsorted(starts, keys, side="right") - 1
        hit = pos >= 0
        safe = np.where(hit, pos, 0)
        hit &= keys < self._dir_ends[safe]
        return np.where(hit, self._dir_slots[safe], -1)

    def view_leaves(self, slots: np.ndarray, view: ChordRing) -> np.ndarray:
        """Cut leaf ``slots`` of this tree to the leaves of ``view``'s KT.

        ``view`` must hold a subset of the indexed ring's virtual
        servers (a partition component or quarantine view).  Each view
        arc is then a union of consecutive ring arcs, so every region
        the ring covers the view covers too: the view's KT is an upper
        subtree of this one, with the same regions, levels and linkage.
        The view leaf on a key's path is therefore the *shallowest* slot
        on its ring leaf's root path that ``view`` covers (or that is
        too short to split, the ``length < k`` rule).  One batched
        :func:`~repro.ktree.tree.leaf_rule` probe over the distinct path
        slots answers coverage; the cut then propagates top-down one
        level at a time.  Returns one view-leaf slot per input slot
        (a slot that already is a view leaf maps to itself).
        """
        parent = self.parent
        on_path = np.zeros(self._size, dtype=bool)
        current = np.unique(np.asarray(slots, dtype=np.int64))
        while current.size:
            on_path[current] = True
            parents = parent[current]
            parents = np.unique(parents[parents >= 0])
            current = parents[~on_path[parents]]
        path = np.flatnonzero(on_path)
        is_view_leaf = np.zeros(self._size, dtype=bool)
        is_view_leaf[path] = leaf_rule(
            view, self.start[path], self.length[path], self.tree.k
        )[1]
        cut = np.full(self._size, -1, dtype=np.int64)
        levels = self.level[path]
        order = np.argsort(levels, kind="stable")
        by_level = path[order]
        bounds = np.flatnonzero(np.diff(levels[order])) + 1
        for group in np.split(by_level, bounds):
            above = parent[group]
            inherited = np.where(above >= 0, cut[np.maximum(above, 0)], -1)
            cut[group] = np.where(
                inherited >= 0,
                inherited,
                np.where(is_view_leaf[group], group, -1),
            )
        out = cut[np.asarray(slots, dtype=np.int64)]
        if out.size and int(out.min()) < 0:
            raise TreeError("view is not a sub-ring of the indexed ring")
        return out

    # ------------------------------------------------------------------
    # Stamp walks
    # ------------------------------------------------------------------
    def new_stamp(self) -> None:
        """Start a fresh stamp generation (call once per round)."""
        self._stamp_id += 1

    def stamp_paths(self, slots: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Stamp the root paths of ``slots`` under the current generation.

        Returns ``(fresh, count, max_level)``: the slots newly stamped by
        this call (deduplicated, unordered), how many there were, and the
        maximum level among them (0 when nothing fresh was stamped).
        Calling again within the same generation unions further paths
        without double-counting — the LBI walk and the VSA delivery walk
        share one generation so their union reproduces the serial
        fresh-tree materialisation count.
        """
        sid = self._stamp_id
        stamp = self._stamp
        parent = self.parent
        chunks: list[np.ndarray] = []
        count = 0
        max_level = 0
        current = np.unique(np.asarray(slots, dtype=np.int64))
        if current.size:
            current = current[stamp[current] != sid]
        while current.size:
            stamp[current] = sid
            chunks.append(current)
            count += int(current.size)
            max_level = max(max_level, int(self.level[current].max()))
            parents = parent[current]
            parents = parents[parents >= 0]
            if parents.size:
                parents = np.unique(parents)
                current = parents[stamp[parents] != sid]
            else:
                current = parents
        if chunks:
            fresh = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        else:
            fresh = np.empty(0, dtype=np.int64)
        return fresh, count, max_level
