"""Construction and maintenance of the K-nary tree, over slot columns.

The tree *is* its :class:`~repro.ktree.index.TreeIndex`: a KT node is a
slot, its region, linkage and leaf flag are columns, its children are a
row of the ``slots x K`` child table and its planting virtual server is
an entry of the ``host`` list.  Every walk is level-synchronous: it
holds one level's slots as an array, answers their planting and
leaf-ness with one :func:`leaf_rule` probe, and gathers the next level
from the child table.

Construction
------------
* :meth:`KnaryTree.build_full` materialises every KT node down to the
  leaves, one level at a time.  Exact but O(#leaves); meant for small
  rings and for tests that verify the structural invariants (every
  virtual server hosts at least one leaf, leaf regions tile the ring,
  ...).
* :meth:`KnaryTree.descend_batch` materialises only the root-to-leaf
  paths of a batch of keys.  Because the tree shape is a pure function
  of the ring, lazily materialised paths coincide exactly with the full
  tree; the aggregation and VSA sweeps only ever touch the paths of
  keys that carry information, which keeps the paper-scale experiments
  (4096 nodes x 5 virtual servers, 32-bit space) cheap.  Every round
  resolves its keys this way; with a ``view`` (a sub-ring such as a
  partition component) the descent stops at the view's leaves, the
  upper cut of this tree that a fresh tree over the view would build.
  :meth:`KnaryTree.ensure_leaf_for_key` is the one-key walk the batch
  is tested against.

All three create nodes through one bulk materialiser: a level's new
children get one :func:`leaf_rule` probe and one registration, which
writes their columns and their parents' child-table entries.

Self-repair
-----------
Section 3.1.1's periodic top-down check is :meth:`KnaryTree.refresh_dirty`,
a level walk over the materialised nodes inside the given dirty
identifier spans: each level re-plants its nodes in the virtual servers
that now own their centers, retires the subtrees of nodes that became
leaves (region now covered by the hosting VS) and flips leaves whose
host shrank back into internal nodes.  :meth:`KnaryTree.refresh` is the
same walk over the whole identifier space.
"""

from __future__ import annotations

import numpy as np

from repro.dht.chord import ChordRing
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import TreeError
from repro.idspace import IntervalSet
from repro.idspace.region import split_bounds
from repro.ktree.index import TreeIndex
from repro.obs.metrics import MetricsRegistry


def leaf_rule(
    ring: ChordRing, starts: np.ndarray, lengths: np.ndarray, k: int
) -> tuple[list[VirtualServer], np.ndarray]:
    """Hosts and leaf-ness of the regions ``[starts, starts + lengths)``.

    A KT node is planted in the virtual server owning its region's
    center, and is a leaf when that server's region completely covers
    its own.  On degenerate tiny rings a region may also become too
    small to split into K parts; such a region cannot grow children
    either, so it is a leaf.  One
    :meth:`~repro.dht.chord.ChordRing.hosts_with_regions` probe at the
    region centers answers both, on raw integers.
    """
    size = ring.space.size
    hosts, h_start, h_length = ring.hosts_with_regions(
        (starts + lengths // 2) % size
    )
    covered = (h_length == size) | ((starts - h_start) % size + lengths <= h_length)
    return hosts, covered | (lengths < k)


class KnaryTree:
    """The K-nary aggregation/assignment tree over a Chord ring.

    Parameters
    ----------
    ring:
        The Chord ring the tree is built on.
    k:
        Tree degree (the paper evaluates K=2 and K=8).
    metrics:
        Optional metrics registry; when attached, the tree counts node
        materialisations (``ktree.materialized``) and self-repair work
        (``ktree.replanted`` / ``ktree.pruned`` / ``ktree.grown``).

    Attributes
    ----------
    index:
        The tree's :class:`~repro.ktree.index.TreeIndex`.  The root is
        slot 0; every other node takes a free slot when it materialises,
        and keeps it until a refresh prunes it.
    """

    def __init__(
        self,
        ring: ChordRing,
        k: int = 2,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not isinstance(k, int) or k < 2:
            raise TreeError(f"tree degree must be an integer >= 2, got {k!r}")
        self.ring = ring
        self.k = k
        self.metrics = metrics
        self.index = TreeIndex(k)
        starts = np.zeros(1, dtype=np.int64)
        lengths = np.full(1, ring.space.size, dtype=np.int64)
        hosts, leaf = leaf_rule(ring, starts, lengths, k)
        self.index._register(
            np.full(1, -1), np.zeros(1, dtype=np.int64), hosts, leaf, starts, lengths
        )

    # ------------------------------------------------------------------
    # The bulk materialiser
    # ------------------------------------------------------------------
    def _materialize(self, parents: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Materialise child ``ranks[i]`` of every slot ``parents[i]``.

        The children's regions split their parents' by the uneven K-way
        rule of :func:`~repro.idspace.region.split_bounds` (tree regions
        never wrap); one :func:`leaf_rule` probe plants them and one
        registration writes their columns.  Returns their slots.
        """
        index = self.index
        k = self.k
        starts = index.start[parents]
        lengths = index.length[parents]
        base = lengths // k
        extra = lengths - base * k
        below = ranks < extra
        starts = starts + np.where(
            below, ranks * (base + 1), extra * (base + 1) + (ranks - extra) * base
        )
        lengths = np.where(below, base + 1, base)
        hosts, leaf = leaf_rule(self.ring, starts, lengths, k)
        slots = index._register(parents, ranks, hosts, leaf, starts, lengths)
        if self.metrics is not None:
            self.metrics.counter("ktree.materialized").inc(len(slots))
        return slots

    # ------------------------------------------------------------------
    # Construction modes
    # ------------------------------------------------------------------
    def build_full(self, max_nodes: int = 2_000_000) -> None:
        """Materialise the entire tree, one level at a time.

        Raises :class:`TreeError` when the tree would exceed ``max_nodes``
        — a guard against accidentally full-building a 32-bit ring.
        """
        index = self.index
        level = np.flatnonzero(~index.is_leaf[:1])
        while level.size:
            rows = index.child[level]
            at, ranks = np.nonzero(rows < 0)
            if at.size:
                if index.live + at.size > max_nodes:
                    raise TreeError(
                        f"full tree exceeds max_nodes={max_nodes}; "
                        "use lazy construction for large rings"
                    )
                rows[at, ranks] = self._materialize(level[at], ranks)
            kids = rows.ravel()
            level = kids[~index.is_leaf[kids]]

    def ensure_leaf_for_key(self, key: int) -> int:
        """Materialise (if needed) the leaf whose region has ``key``; its slot.

        The returned leaf is identical to the one :meth:`build_full`
        would produce, because the split sequence is deterministic.
        This is the one-key reference walk, on scalar arithmetic;
        rounds resolve their keys with :meth:`descend_batch`.
        """
        self.ring.space.validate(key)
        index = self.index
        k = self.k
        slot = 0
        while not index.is_leaf[slot]:
            start = int(index.start[slot])
            length = int(index.length[slot])
            offset = key - start
            base, extra = divmod(length, k)
            boundary = (base + 1) * extra
            if offset < boundary:
                rank = offset // (base + 1)
            else:
                rank = extra + (offset - boundary) // base
            child = int(index.child[slot, rank])
            if child < 0:
                child = int(
                    self._materialize(np.array([slot]), np.array([rank]))[0]
                )
            slot = child
        return slot

    def descend_batch(
        self, keys: np.ndarray, view: ChordRing | None = None
    ) -> np.ndarray:
        """Level-synchronous batched descent: all ``keys`` down together.

        Returns, for every input key, the slot (in :attr:`index`) of the
        leaf it reaches.  Behaviourally identical to calling
        :meth:`ensure_leaf_for_key` per key (the split sequence is a
        pure function of the ring, so the same leaves materialise), but
        each level's digit extraction against the uneven K-way split
        runs once over the whole active key set, the child table
        answers every ``(slot, digit)`` pair in one gather, and the
        distinct missing children materialise in one bulk call — so the
        ``ktree.materialized`` accounting matches the serial descent.

        With a ``view`` — a ring holding a subset of this ring's virtual
        servers — the descent stops at the first node ``view`` covers
        (see :meth:`view_leaves`): the returned slots are the leaves of
        the view's KT, and nothing below them materialises.
        """
        size = self.ring.space.size
        k = self.k
        index = self.index
        key_arr = np.ascontiguousarray(keys, dtype=np.int64)
        n = int(key_arr.size)
        slots = np.zeros(n, dtype=np.int64)
        if n == 0:
            return slots
        if int(key_arr.min()) < 0 or int(key_arr.max()) >= size:
            raise TreeError("descend_batch key outside the identifier space")
        root_stops = bool(index.is_leaf[0])
        if view is not None and not root_stops:
            # A view with one virtual server covers the whole ring.
            whole = np.full(1, size, dtype=np.int64)
            root_stops = bool(leaf_rule(view, whole * 0, whole, k)[1][0])
        if root_stops:
            return slots  # the root is slot 0
        active = np.arange(n, dtype=np.int64)
        at = np.zeros(n, dtype=np.int64)  # each active key's internal slot
        while active.size:
            # Inline Region.child_index_for over the whole active set
            # (internal regions always have length >= k, so base >= 1).
            offsets = key_arr[active] - index.start[at]
            lengths = index.length[at]
            base = lengths // k
            extra = lengths - base * k
            boundary = (base + 1) * extra
            ranks = np.where(
                offsets < boundary,
                offsets // (base + 1),
                extra + (offsets - boundary) // base,
            )
            uniq, inverse = np.unique(at * k + ranks, return_inverse=True)
            parents, ranks = np.divmod(uniq, k)
            kids = index.child[parents, ranks].astype(np.int64)
            missing = np.flatnonzero(kids < 0)
            if missing.size:
                kids[missing] = self._materialize(parents[missing], ranks[missing])
            stop = index.is_leaf[kids]
            if view is not None:
                stop |= leaf_rule(view, index.start[kids], index.length[kids], k)[1]
            key_stop = stop[inverse]
            slots[active[key_stop]] = kids[inverse[key_stop]]
            cont = ~key_stop
            active = active[cont]
            at = kids[inverse[cont]]
        return slots

    def view_leaves(self, slots: np.ndarray, view: ChordRing) -> np.ndarray:
        """Cut leaf ``slots`` of this tree to the leaves of ``view``'s KT.

        ``view`` must hold a subset of this ring's virtual servers (a
        partition component or quarantine view).  Each view arc is then
        a union of consecutive ring arcs, so every region the ring
        covers the view covers too: the view's KT is an upper subtree of
        this one, with the same regions, levels and linkage.  The view
        leaf on a key's path is therefore the *shallowest* slot on its
        ring leaf's root path that ``view`` covers (or that is too short
        to split, the ``length < k`` rule).  One batched
        :func:`leaf_rule` probe over the distinct path slots answers
        coverage; the cut then propagates top-down one level at a time.
        Returns one view-leaf slot per input slot (a slot that already
        is a view leaf maps to itself).
        """
        index = self.index
        size = len(index)
        parent = index.parent
        on_path = np.zeros(size, dtype=bool)
        current = np.unique(np.asarray(slots, dtype=np.int64))
        while current.size:
            on_path[current] = True
            parents = parent[current]
            parents = np.unique(parents[parents >= 0])
            current = parents[~on_path[parents]]
        path = np.flatnonzero(on_path)
        is_view_leaf = np.zeros(size, dtype=bool)
        is_view_leaf[path] = leaf_rule(
            view, index.start[path], index.length[path], self.k
        )[1]
        cut = np.full(size, -1, dtype=np.int64)
        levels = index.level[path]
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
    # Queries (all return slots)
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of currently materialised KT nodes."""
        return self.index.live

    def _live(self) -> np.ndarray:
        index = self.index
        return np.flatnonzero(index.alive[: len(index)])

    def height(self) -> int:
        """Maximum level among materialised nodes (root = 0)."""
        return int(self.index.level[self._live()].max())

    def nodes_by_level_desc(self) -> np.ndarray:
        """Materialised slots deepest-first (bottom-up sweep order).

        Within a level, by descending region start: the order a stable
        deepest-first sort of the descending-rank preorder gives.
        """
        index = self.index
        live = self._live()
        return live[np.lexsort((-index.start[live], -index.level[live]))]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(parents, children)`` slots of every materialised tree edge.

        Parents come in descending-rank preorder (a node, then its
        children's subtrees from the highest rank down) — the order that
        sorts regions by descending end, shallower first — and each
        parent's children by ascending rank.
        """
        index = self.index
        live = self._live()
        ends = index.start[live] + index.length[live]
        preorder = live[np.lexsort((index.level[live], -ends))]
        rows = index.child[preorder]
        linked = rows >= 0
        parents = np.repeat(preorder, self.k).reshape(rows.shape)
        return parents[linked], rows[linked].astype(np.int64)

    # ------------------------------------------------------------------
    # Maintenance (self-repair)
    # ------------------------------------------------------------------
    def refresh(self) -> dict[str, int]:
        """One top-down maintenance pass over the whole tree.

        :meth:`refresh_dirty` with the whole identifier space dirty.
        Returns counters: ``replanted``, ``pruned``, ``grown``.
        """
        space = self.ring.space
        return self.refresh_dirty(IntervalSet(space, [(0, space.size)]))

    def refresh_dirty(self, dirty: IntervalSet) -> dict[str, int]:
        """Self-repair restricted to the subtrees overlapping ``dirty``.

        A level walk from the root: each level's slots get one
        :func:`leaf_rule` probe; a slot whose host changed (by identity)
        is re-planted, a slot that became a leaf (region now covered by
        a single virtual server) has its subtree retired through the
        child table, and a leaf whose host shrank grows back into an
        internal node with unmaterialised children.  The next level is
        the materialised children of the slots that stayed internal
        whose regions overlap ``dirty``.  Skipping the rest is sound
        because a KT node's planting and leaf-ness depend only on the
        ring ownership of identifiers inside its own region: when no
        ownership inside the region changed, ``successor(center)`` and
        the covering test give the answers they gave last round.  The
        caller is responsible for ``dirty`` covering every region whose
        ownership changed (see :meth:`repro.dht.events.RingEventLog.drain`,
        which derives the spans from the logged ring events).

        Returns counters: ``replanted``, ``pruned``, ``grown``.
        """
        replanted = pruned = grown = 0
        index = self.index
        host = index.host
        level = np.zeros(1 if dirty else 0, dtype=np.int64)
        while level.size:
            hosts, leaf_now = leaf_rule(
                self.ring, index.start[level], index.length[level], self.k
            )
            for slot, new_host in zip(level.tolist(), hosts):
                if host[slot] is not new_host:
                    host[slot] = new_host
                    replanted += 1
            was_leaf = index.is_leaf[level]
            prune = level[leaf_now & ~was_leaf]
            if prune.size:
                below = index.child[prune].ravel()
                below = below[below >= 0]
                while below.size:
                    kids = index.child[below].ravel()
                    index._retire(below)
                    pruned += below.size
                    below = kids[kids >= 0]
                index._flip(prune, True)
            grow = level[~leaf_now & was_leaf]
            if grow.size:
                index._flip(grow, False)
                grown += grow.size
            kids = index.child[level[~(leaf_now | was_leaf)]].ravel()
            kids = kids[kids >= 0]
            level = kids[dirty.overlaps(index.start[kids], index.length[kids])]
        if self.metrics is not None:
            self.metrics.counter("ktree.replanted").inc(replanted)
            self.metrics.counter("ktree.pruned").inc(pruned)
            self.metrics.counter("ktree.grown").inc(grown)
        return {"replanted": replanted, "pruned": pruned, "grown": grown}

    def check_invariants(self) -> None:
        """Structural invariants of the slot columns, against a recomputation.

        The live slots must be exactly those reachable from slot 0
        through the child table; the child table must agree with the
        ``parent`` and ``child_rank`` columns; each live region must be
        its parent's split part at its rank (the root's is the whole
        ring); each host must be the virtual server owning its node's
        center; the leaf flags must obey the leaf rule; and the leaf
        directory must resolve each live leaf's region start to that
        leaf.
        """
        index = self.index
        k = self.k
        size = self.ring.space.size
        live = self._live()
        reached = np.zeros(len(index), dtype=bool)
        level = np.zeros(1, dtype=np.int64)
        while level.size:
            if reached[level].any():
                raise TreeError("child table revisits a slot")
            reached[level] = True
            kids = index.child[level].ravel()
            level = kids[kids >= 0].astype(np.int64)
        if index.live != live.size or not np.array_equal(
            np.flatnonzero(reached), live
        ):
            raise TreeError("live slots are not exactly the slots under the root")
        at, ranks = np.nonzero(index.child[live] >= 0)
        kids = index.child[live[at], ranks]
        if (
            index.parent[0] != -1
            or not np.array_equal(index.parent[kids], live[at])
            or not np.array_equal(index.child_rank[kids], ranks)
        ):
            raise TreeError("child table disagrees with parent/child_rank")
        regions = [(0, size, 0)]  # live[0] is the root, slot 0
        for slot in live[1:].tolist():
            p = int(index.parent[slot])
            regions.append(
                split_bounds(
                    int(index.start[p]), int(index.length[p]), k,
                    int(index.child_rank[slot]), size,
                )
                + (int(index.level[p]) + 1,)
            )
        want = np.asarray(regions, dtype=np.int64).reshape(-1, 3)
        got = np.stack(
            (index.start[live], index.length[live], index.level[live]), axis=1
        )
        if not np.array_equal(want, got):
            raise TreeError("slot region or level is not its parent's split part")
        hosts, leaf = leaf_rule(self.ring, index.start[live], index.length[live], k)
        if any(index.host[s] is not h for s, h in zip(live.tolist(), hosts)):
            raise TreeError("KT node planted in a VS that does not own its center")
        if not np.array_equal(index.is_leaf[live], leaf):
            raise TreeError("leaf flag breaks the leaf rule")
        if (index.child[live[leaf]] >= 0).any():
            raise TreeError("leaf KT node has materialised children")
        leaves = live[leaf]
        if not np.array_equal(index.resolve_leaves(index.start[leaves]), leaves):
            raise TreeError("leaf directory does not resolve a leaf's region")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnaryTree(k={self.k}, materialized={self.node_count})"
