"""The struct-of-arrays slot columns of one K-nary tree.

Every :class:`~repro.ktree.tree.KnaryTree` owns one :class:`TreeIndex`
and registers each :class:`~repro.ktree.node.KTNode` in it the moment
the node materialises, under a stable integer *slot*.  The columns
(``parent``, ``level``, ``child_rank``, ``alive``, ``is_leaf``,
``start``, ``length``) mirror the tree's linkage and regions, and the
tree's self-repair writes them in the same pass that prunes or flips
nodes, so no caller ever syncs them.  The balancer folds LBI aggregates
and sweeps VSA buckets over slots instead of objects, which is what
makes its hot paths vectorisable:

* *Stamp walks* (:meth:`stamp_paths`) mark the union of root-to-leaf
  paths touched in the current round.  The stamped slot set is exactly
  the node set a from-scratch lazily-built tree would materialise for
  the same keys, so the object walk's message/height accounting can be
  reproduced from the stamps alone.
* *Leaf directory* (:meth:`resolve_leaves`) answers which materialised
  leaf owns each key with one ``searchsorted`` over the live leaves'
  region starts.  Every registration, retirement and leaf flip marks
  its slot pending, and the next lookup splices the pending slots in or
  out, so a lookup never returns a pruned slot or one that has since
  split.

A pruned node's slot is retired (``alive`` false, ``nodes[slot]`` is
``None``) and not handed out again.  Every key resolves afresh each
round, so nothing outside the tree holds a slot across a refresh: a
retired slot is dead weight, not a hazard.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import TreeError
from repro.ktree.node import KTNode


class TreeIndex:
    """Slot registry, linkage columns and leaf directory of one tree.

    Only the owning :class:`~repro.ktree.tree.KnaryTree` writes it
    (:meth:`_register`, :meth:`_retire`, :meth:`_flip`); everyone else
    reads the columns and calls the lookups.
    """

    __slots__ = (
        "nodes",
        "live",
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

    def __init__(self, capacity: int = 1024) -> None:
        self.nodes: list[KTNode | None] = []
        #: Number of live (materialised, unpruned) slots.
        self.live = 0
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

    # ------------------------------------------------------------------
    # Registration (written by the owning tree only)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _grow(self, needed: int) -> None:
        new_cap = self._capacity
        while new_cap < needed:
            new_cap = new_cap * 3 // 2
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

    def _register(
        self,
        nodes: Sequence[KTNode],
        starts: Iterable[int] | np.ndarray,
        lengths: Iterable[int] | np.ndarray,
    ) -> None:
        """Give freshly materialised ``nodes`` the next slots, in order.

        ``starts``/``lengths`` are the nodes' regions; each node's
        parent must already be registered.
        """
        first = self._size
        end = first + len(nodes)
        if end > self._capacity:
            self._grow(end)
        for slot, node in enumerate(nodes, first):
            node.slot = slot
        self.nodes.extend(nodes)
        self.parent[first:end] = [
            -1 if node.parent is None else node.parent.slot for node in nodes
        ]
        self.level[first:end] = [node.level for node in nodes]
        self.child_rank[first:end] = [node.rank for node in nodes]
        leaf = [node.is_leaf for node in nodes]
        self.is_leaf[first:end] = leaf
        self.alive[first:end] = True
        self.start[first:end] = starts
        self.length[first:end] = lengths
        self._size = end
        self.live += len(nodes)
        if self._dir_starts is not None:
            self._dir_pending.update(
                slot for slot, flag in enumerate(leaf, first) if flag
            )

    def _retire(self, slots: Sequence[int]) -> None:
        """Retire pruned nodes' slots (they are not handed out again)."""
        for slot in slots:
            self.nodes[slot] = None
        self.alive[slots] = False
        self.is_leaf[slots] = False
        self.live -= len(slots)
        if self._dir_starts is not None:
            self._dir_pending.update(slots)

    def _flip(self, slot: int, leaf: bool) -> None:
        """Record that the node at ``slot`` became a leaf or internal."""
        self.is_leaf[slot] = leaf
        if self._dir_starts is not None:
            self._dir_pending.add(slot)

    def node_at(self, slot: int) -> KTNode:
        """The live node registered at ``slot``."""
        node = self.nodes[slot]
        if node is None:
            raise TreeError(f"slot {slot} was pruned")
        return node

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
