"""The struct-of-arrays slot columns that *are* one K-nary tree.

Every :class:`~repro.ktree.tree.KnaryTree` owns one :class:`TreeIndex`.
A materialised KT node is nothing but an integer *slot* into its
columns: ``parent``, ``level``, ``child_rank``, ``alive``, ``is_leaf``,
``start``, ``length``, the ``slots x K`` ``child`` table (``-1`` where a
child is not materialised) and the ``host`` list of planting virtual
servers.  The tree's construction and self-repair write the columns
level by level; the balancer folds LBI aggregates and sweeps VSA
buckets over them, which is what makes its hot paths vectorisable:

* *Stamp walks* (:meth:`stamp_paths`) mark the union of root-to-leaf
  paths touched in the current round.  The stamped slot set is exactly
  the node set a from-scratch lazily-built tree would materialise for
  the same keys, so the reference walk's message/height accounting can
  be reproduced from the stamps alone.
* *Leaf directory* (:meth:`resolve_leaves`) answers which materialised
  leaf owns each key with one ``searchsorted`` over the live leaves'
  region starts.  Every registration, retirement and leaf flip marks
  its slot pending, and the next lookup splices the pending slots in or
  out, so a lookup never returns a pruned slot or one that has since
  split.

A pruned node's slot is retired (``alive`` false, no host) onto a free
list, and the next registration reuses it before the columns grow.
Every key resolves afresh each round, so nothing outside the tree holds
a slot across a refresh, and slot numbers are never observable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dht.virtual_server import VirtualServer


class TreeIndex:
    """Slot columns, child table, host list and leaf directory of one tree.

    Only the owning :class:`~repro.ktree.tree.KnaryTree` writes it
    (:meth:`_register`, :meth:`_retire`, :meth:`_flip`, and ``host`` on
    replanting); everyone else reads the columns and calls the lookups.
    """

    __slots__ = (
        "host",
        "live",
        "_size",
        "_capacity",
        "_free",
        "parent",
        "level",
        "child_rank",
        "child",
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

    #: Initial slot capacity; the columns grow by half when it runs out.
    CAPACITY = 1024

    #: Pending-patch flood valve: above ``max(64, len(directory) // 8)``
    #: dirty slots the batched splice costs more than a fresh sort.
    DIR_PATCH_FLOOR = 64

    def __init__(self, k: int) -> None:
        #: Planting virtual server per slot (``None`` on retired slots).
        self.host: list[VirtualServer | None] = []
        #: Number of live (materialised, unpruned) slots.
        self.live = 0
        self._size = 0
        self._capacity = cap = self.CAPACITY
        self._free: list[int] = []
        # Slot-valued and small-integer columns are int32 (a persistent
        # tree holds tens of thousands of slots); regions need int64.
        self.parent = np.full(cap, -1, dtype=np.int32)
        self.level = np.zeros(cap, dtype=np.int32)
        self.child_rank = np.zeros(cap, dtype=np.int32)
        self.child = np.full((cap, k), -1, dtype=np.int32)
        self.alive = np.zeros(cap, dtype=bool)
        self.is_leaf = np.zeros(cap, dtype=bool)
        self.start = np.zeros(cap, dtype=np.int64)
        self.length = np.zeros(cap, dtype=np.int64)
        self._stamp = np.zeros(cap, dtype=np.int32)
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
            "child",
            "alive",
            "is_leaf",
            "start",
            "length",
            "_stamp",
        ):
            old = getattr(self, name)
            fill = -1 if name in ("parent", "child") else 0
            fresh = np.full((new_cap,) + old.shape[1:], fill, dtype=old.dtype)
            fresh[: self._capacity] = old
            setattr(self, name, fresh)
        self._capacity = new_cap

    def _register(
        self,
        parents: np.ndarray,
        ranks: np.ndarray,
        hosts: Sequence[VirtualServer],
        leaf: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        """Register freshly materialised nodes; returns their slots.

        Node ``i`` is child ``ranks[i]`` of slot ``parents[i]`` (``-1``
        for the root), planted in ``hosts[i]``, a leaf iff ``leaf[i]``,
        with region ``[starts[i], starts[i] + lengths[i])``.  Retired
        slots (whose child rows :meth:`_retire` cleared) are reused, last
        retired first, before the columns grow; each parent's
        child-table entry is written.
        """
        n = len(hosts)
        reused = [self._free.pop() for _ in range(min(n, len(self._free)))]
        first = self._size
        end = first + n - len(reused)
        if end > self._capacity:
            self._grow(end)
        slots = np.concatenate(
            (np.asarray(reused, dtype=np.int64), np.arange(first, end))
        )
        for slot, host in zip(reused, hosts):
            self.host[slot] = host
        self.host.extend(hosts[len(reused) :])
        linked = parents >= 0
        self.parent[slots] = parents
        self.level[slots] = np.where(
            linked, self.level[np.maximum(parents, 0)] + 1, 0
        )
        self.child_rank[slots] = ranks
        self.child[parents[linked], ranks[linked]] = slots[linked]
        self.is_leaf[slots] = leaf
        self.alive[slots] = True
        self.start[slots] = starts
        self.length[slots] = lengths
        self._stamp[slots] = 0
        self._size = end
        self.live += n
        if self._dir_starts is not None:
            self._dir_pending.update(slots[leaf].tolist())
        return slots

    def _retire(self, slots: np.ndarray) -> None:
        """Retire pruned nodes' slots onto the free list.

        The caller clears the child-table entries pointing at them.
        """
        for slot in slots.tolist():
            self.host[slot] = None
        self.alive[slots] = False
        self.is_leaf[slots] = False
        self.child[slots] = -1
        self.live -= len(slots)
        self._free.extend(slots.tolist())
        if self._dir_starts is not None:
            self._dir_pending.update(slots.tolist())

    def _flip(self, slots: np.ndarray, leaf: bool) -> None:
        """Record that the nodes at ``slots`` became leaves or internal.

        A leaf has no children, so flipping to a leaf clears the slots'
        child-table rows.
        """
        self.is_leaf[slots] = leaf
        if leaf:
            self.child[slots] = -1
        if self._dir_starts is not None:
            self._dir_pending.update(slots.tolist())

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
        live leaf *now* — so a slot that flipped twice, or was retired
        and reused, between resolves lands in the state the columns
        describe.  Leaf regions tile the ring disjointly, so region
        starts are unique and one batched ``searchsorted`` +
        ``np.insert`` keeps the order strict.
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
