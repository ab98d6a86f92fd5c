"""Construction and maintenance of the K-nary tree.

Two construction modes are provided:

* :meth:`KnaryTree.build_full` materialises every KT node down to the
  leaves.  Exact but O(#leaves); meant for small rings and for tests
  that verify the structural invariants (every virtual server hosts at
  least one leaf, leaf regions tile the ring, ...).

* :meth:`KnaryTree.descend_batch` materialises only the root-to-leaf
  paths of a batch of keys, one tree level at a time.  Because the tree
  shape is a pure function of the ring, lazily materialised paths
  coincide exactly with the full tree; the aggregation and VSA sweeps
  only ever touch the paths of keys that carry information, which
  keeps the paper-scale experiments (4096 nodes x 5 virtual servers,
  32-bit space) cheap.  Every round resolves its keys this way; with a
  ``view`` (a sub-ring such as a partition component) the descent
  stops at the view's leaves, the upper cut of this tree that a fresh
  tree over the view would build.
  :meth:`KnaryTree.ensure_leaf_for_key` is the one-key walk the batch
  is tested against.

Nodes carry no region objects: a node's region derives from the root's
through the split ranks on its path (:attr:`KTNode.region`), and the
tree's own walks carry regions along as they descend.  The tree owns
one :class:`~repro.ktree.index.TreeIndex`: every node is registered in
its slot columns when it materialises, and the self-repair walk retires
and flips slots as it prunes and flips nodes, so the columns always
describe exactly the materialised tree.

Self-repair (Section 3.1.1) is one top-down walk,
:meth:`KnaryTree.refresh_dirty`: it re-plants every materialised KT
node inside the given dirty identifier spans in the virtual server that
now owns its center point, prunes children that became redundant
(region now covered by the hosting VS) and grows children that became
necessary.  :meth:`KnaryTree.refresh` is the same walk over the whole
identifier space; each pass corresponds to one round of the paper's
periodic top-down checking.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, cast

import numpy as np

from repro.dht.chord import ChordRing
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import TreeError
from repro.idspace import IntervalSet, Region
from repro.idspace.region import split_bounds
from repro.ktree.index import TreeIndex
from repro.ktree.node import KTNode, KTRoot
from repro.obs.metrics import MetricsRegistry


def leaf_rule(
    ring: ChordRing, starts: np.ndarray, lengths: np.ndarray, k: int
) -> tuple[list[VirtualServer], np.ndarray]:
    """Hosts and leaf-ness of the regions ``[starts, starts + lengths)``.

    The batched form of :meth:`KnaryTree._host_and_leaf`: one
    :meth:`~repro.dht.chord.ChordRing.hosts_with_regions` probe at the
    region centers, then the same raw-integer coverage test and the
    ``length < k`` rule.
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
        slot 0; every other node takes the next slot when it
        materialises, and keeps it until a refresh prunes it.
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
        size = ring.space.size
        host, is_leaf = self._host_and_leaf(0, size)
        self.root: KTNode = KTRoot(ring.space, host, is_leaf, k)
        self.index = TreeIndex()
        self.index._register([self.root], [0], [size])

    # ------------------------------------------------------------------
    # Node construction helpers
    # ------------------------------------------------------------------
    def _host_and_leaf(self, start: int, length: int) -> tuple[VirtualServer, bool]:
        """Hosting VS of region ``[start, start + length)`` and the
        paper's leaf rule, in one probe.

        A KT node is a leaf when its region is completely covered by the
        region of its hosting virtual server (the successor of its center
        point).  On degenerate tiny rings a region may also become too
        small to split into K parts; such a region cannot grow children
        either, so it is a leaf.

        Uses :meth:`~repro.dht.chord.ChordRing.host_with_region` so the
        host lookup and the coverage test share a single index probe; the
        raw-integer arithmetic mirrors :meth:`Region.center` and
        :meth:`Region.covers` exactly.
        """
        size = self.ring.space.size
        host, hstart, hlength = self.ring.host_with_region(
            (start + length // 2) % size
        )
        if hlength == size:
            covered = True
        elif length == size:
            covered = False
        else:
            covered = (start - hstart) % size + length <= hlength
        return host, covered or length < self.k

    def _materialize_child(
        self, node: KTNode, index: int, start: int, length: int
    ) -> KTNode:
        """Child ``index`` of ``node``, whose region is ``[start, start + length)``."""
        if node.is_leaf:
            raise TreeError("leaf KT nodes have no children")
        existing = node.children[index]
        if existing is not None:
            return existing
        host, is_leaf = self._host_and_leaf(start, length)
        child = KTNode(node.level + 1, node, index, host, is_leaf, self.k)
        node.set_child(index, child)
        self.index._register([child], [start], [length])
        if self.metrics is not None:
            self.metrics.counter("ktree.materialized").inc()
        return child

    # ------------------------------------------------------------------
    # Construction modes
    # ------------------------------------------------------------------
    def build_full(self, max_nodes: int = 2_000_000) -> None:
        """Materialise the entire tree (small rings / structural tests).

        Raises :class:`TreeError` when the tree would exceed ``max_nodes``
        — a guard against accidentally full-building a 32-bit ring.
        """
        size = self.ring.space.size
        queue: deque[tuple[KTNode, int, int]] = deque([(self.root, 0, size)])
        while queue:
            node, start, length = queue.popleft()
            if node.is_leaf:
                continue
            for i in range(self.k):
                c_start, c_length = split_bounds(start, length, self.k, i, size)
                child = self._materialize_child(node, i, c_start, c_length)
                if self.index.live > max_nodes:
                    raise TreeError(
                        f"full tree exceeds max_nodes={max_nodes}; "
                        "use lazy construction for large rings"
                    )
                queue.append((child, c_start, c_length))

    def ensure_leaf_for_key(self, key: int) -> KTNode:
        """Materialise (if needed) and return the leaf whose region has ``key``.

        The returned leaf is identical to the one :meth:`build_full`
        would produce, because the split sequence is deterministic.
        This is the one-key reference walk; rounds resolve their keys
        with :meth:`descend_batch`.

        The descent tracks the current region as raw ``(start, length)``
        integers and replicates :meth:`Region.child_index_for` inline, so
        steps through already-materialised children cost no region
        allocation or validation.
        """
        self.ring.space.validate(key)
        size = self.ring.space.size
        k = self.k
        node = self.root
        start, length = 0, size
        guard = 0
        while not node.is_leaf:
            offset = (key - start) % size
            base, extra = divmod(length, k)
            boundary = (base + 1) * extra
            if offset < boundary:
                index = offset // (base + 1)
                child_offset = index * (base + 1)
                child_length = base + 1
            else:
                index = extra + (offset - boundary) // base
                child_offset = boundary + (index - extra) * base
                child_length = base
            start = (start + child_offset) % size
            length = child_length
            child = node.children[index]
            if child is None:
                child = self._materialize_child(node, index, start, length)
            node = child
            guard += 1
            if guard > 8 * self.ring.space.bits:  # pragma: no cover
                raise TreeError("runaway descent in ensure_leaf_for_key")
        return node

    def descend_batch(
        self, keys: np.ndarray, view: ChordRing | None = None
    ) -> np.ndarray:
        """Level-synchronous batched descent: all ``keys`` down together.

        Returns, for every input key, the slot (in :attr:`index`) of the
        leaf it reaches.  Behaviourally identical to calling
        :meth:`ensure_leaf_for_key` per key (the split sequence is a
        pure function of the ring, so the same leaves materialise), but
        the per-level child arithmetic — digit extraction against the
        uneven K-way split — runs once over the whole active key set as
        NumPy integer programs, and the Python loop touches each
        *distinct* ``(node, child)`` pair exactly once per level.  The
        total Python work is therefore proportional to the number of
        distinct path nodes the key set touches, not ``len(keys) x
        depth``.

        Regions stay raw integer columns throughout; genuinely new
        children materialise in bulk per level — one vectorised
        :meth:`~repro.dht.chord.ChordRing.hosts_with_regions` probe
        answers every new child's planting and leaf-ness at once, and
        one registration writes their slot columns — and the
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
        root_stops = self.root.is_leaf
        if view is not None and not root_stops:
            # A view with one virtual server covers the whole ring.
            whole = np.full(1, size, dtype=np.int64)
            root_stops = bool(leaf_rule(view, whole * 0, whole, k)[1][0])
        if root_stops:
            return slots  # the root is slot 0
        # Frontier: the distinct internal nodes the active keys sit at,
        # with their regions as raw (start, length) integer columns.
        frontier: list[KTNode] = [self.root]
        f_start = np.zeros(1, dtype=np.int64)
        f_length = np.full(1, size, dtype=np.int64)
        key_node = np.zeros(n, dtype=np.int64)
        active = np.arange(n, dtype=np.int64)
        guard = 0
        while active.size:
            akeys = key_arr[active]
            anode = key_node[active]
            starts = f_start[anode]
            lengths = f_length[anode]
            # Inline Region.child_index_for over the whole active set
            # (internal regions always have length >= k, so base >= 1).
            offsets = (akeys - starts) % size
            base = lengths // k
            extra = lengths - base * k
            boundary = (base + 1) * extra
            below = offsets < boundary
            idx = np.where(
                below,
                offsets // (base + 1),
                extra + (offsets - boundary) // np.maximum(base, 1),
            )
            child_offset = np.where(
                below, idx * (base + 1), boundary + (idx - extra) * base
            )
            child_length = np.where(below, base + 1, base)
            # Group the active keys by (frontier node, child digit) and
            # materialise each distinct child once.
            group = anode * k + idx
            uniq, first_pos, inverse = np.unique(
                group, return_index=True, return_inverse=True
            )
            g_start = (starts[first_pos] + child_offset[first_pos]) % size
            g_length = child_length[first_pos]
            parents_u = [frontier[g] for g in (uniq // k).tolist()]
            ranks_u = (uniq % k).tolist()
            children_u: list[KTNode | None] = [
                node.children[rank] for node, rank in zip(parents_u, ranks_u)
            ]
            missing = [j for j, c in enumerate(children_u) if c is None]
            if missing:
                m = np.asarray(missing, dtype=np.int64)
                m_start = g_start[m]
                m_length = g_length[m]
                hosts, new_leaf = leaf_rule(self.ring, m_start, m_length, k)
                born: list[KTNode] = []
                for j, host, leaf_j in zip(missing, hosts, new_leaf.tolist()):
                    node = parents_u[j]
                    rank = ranks_u[j]
                    child = KTNode(node.level + 1, node, rank, host, leaf_j, k)
                    node.set_child(rank, child)
                    children_u[j] = child
                    born.append(child)
                index._register(born, m_start, m_length)
                if self.metrics is not None:
                    self.metrics.counter("ktree.materialized").inc(len(missing))
            children = cast("list[KTNode]", children_u)
            child_slots = np.fromiter(
                (child.slot for child in children),
                dtype=np.int64,
                count=len(children),
            )
            stop = index.is_leaf[child_slots]
            if view is not None:
                stop |= leaf_rule(view, g_start, g_length, k)[1]
            key_stop = stop[inverse]
            slots[active[key_stop]] = child_slots[inverse[key_stop]]
            keep = ~stop
            frontier = [children[j] for j in np.flatnonzero(keep).tolist()]
            f_start = g_start[keep]
            f_length = g_length[keep]
            cont = ~key_stop
            active = active[cont]
            if active.size:
                key_node[active] = (np.cumsum(keep) - 1)[inverse[cont]]
            guard += 1
            if guard > 8 * self.ring.space.bits:  # pragma: no cover
                raise TreeError("runaway descent in descend_batch")
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
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of currently materialised KT nodes."""
        return self.index.live

    def iter_nodes(self) -> Iterator[KTNode]:
        """All materialised nodes, preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.materialized_children())

    def leaves(self) -> list[KTNode]:
        """All materialised leaves."""
        return [n for n in self.iter_nodes() if n.is_leaf]

    def height(self) -> int:
        """Maximum level among materialised nodes (root = 0)."""
        return max((n.level for n in self.iter_nodes()), default=0)

    def nodes_by_level_desc(self) -> list[KTNode]:
        """Materialised nodes sorted deepest-first (bottom-up sweep order)."""
        return sorted(self.iter_nodes(), key=lambda n: -n.level)

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

        Re-plants every visited node, prunes subtrees whose root became
        a leaf (region now covered by a single virtual server) and
        re-evaluates leaf-ness the other way (a leaf whose host shrank
        grows back into an internal node with unmaterialised children),
        retiring pruned slots and flipping leaf flags in :attr:`index`
        as it goes.  Subtrees whose region does not intersect the dirty
        identifier spans are skipped.  This is sound because a KT node's
        planting and leaf-ness depend only on the ring ownership of
        identifiers inside its own region: when no ownership inside the
        region changed, ``successor(center)`` and the covering test give
        the answers they gave last round.  The caller is responsible for
        ``dirty`` covering every region whose ownership changed (see
        :meth:`repro.dht.events.RingEventLog.drain`, which derives the
        spans from the logged ring events).

        Returns counters: ``replanted``, ``pruned``, ``grown``.
        """
        replanted = pruned = grown = 0
        index = self.index
        size = self.ring.space.size
        stack = [(self.root, 0, size)] if dirty else []
        while stack:
            node, start, length = stack.pop()
            new_host, leaf_now = self._host_and_leaf(start, length)
            if new_host is not node.host_vs:
                node.host_vs = new_host
                replanted += 1
            if leaf_now and not node.is_leaf:
                removed = [n.slot for n in self._subtree(node) if n is not node]
                index._retire(removed)
                pruned += len(removed)
                node.children = ()
                node.is_leaf = True
                index._flip(node.slot, True)
            elif not leaf_now and node.is_leaf:
                node.is_leaf = False
                node.children = (None,) * self.k
                index._flip(node.slot, False)
                grown += 1
            for child in node.materialized_children():
                c_start, c_length = split_bounds(
                    start, length, self.k, child.rank, size
                )
                if dirty.overlaps(c_start, c_length):
                    stack.append((child, c_start, c_length))
        if self.metrics is not None:
            self.metrics.counter("ktree.replanted").inc(replanted)
            self.metrics.counter("ktree.pruned").inc(pruned)
            self.metrics.counter("ktree.grown").inc(grown)
        return {"replanted": replanted, "pruned": pruned, "grown": grown}

    def _subtree(self, node: KTNode) -> Iterator[KTNode]:
        stack = [node]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(n.materialized_children())

    def check_invariants(self) -> None:
        """Structural invariants of a (fully or lazily) materialised tree,
        and of :attr:`index` against it.

        Every materialised node must be live in the index with its own
        linkage, level, leaf flag and region in the slot columns, no
        other slot may be live, and the leaf directory must resolve each
        live leaf's region start to that leaf.
        """
        index = self.index
        leaf_slots: list[int] = []
        visited = 0
        stack = [(self.root, Region.full(self.ring.space))]
        while stack:
            node, region = stack.pop()
            if node.region != region:
                raise TreeError("KT node's derived region does not match its path")
            slot = node.slot
            if not (0 <= slot < len(index) and index.nodes[slot] is node):
                raise TreeError("materialised KT node is not registered")
            parent_slot = -1 if node.parent is None else node.parent.slot
            if (
                not index.alive[slot]
                or int(index.parent[slot]) != parent_slot
                or int(index.level[slot]) != node.level
                or int(index.child_rank[slot]) != node.rank
                or bool(index.is_leaf[slot]) != node.is_leaf
                or int(index.start[slot]) != region.start
                or int(index.length[slot]) != region.length
            ):
                raise TreeError("slot columns disagree with their KT node")
            visited += 1
            host_region = self.ring.region_of(node.host_vs)
            if not host_region.contains(region.center):
                raise TreeError("KT node planted in a VS that does not own its center")
            if node.is_leaf:
                if not (host_region.covers(region) or region.length < self.k):
                    raise TreeError("leaf KT node's region is not covered by its host VS")
                leaf_slots.append(slot)
                continue
            if host_region.covers(region):
                raise TreeError("internal KT node should be a leaf")
            for i, child in enumerate(node.children):
                if child is None:
                    continue
                if child.parent is not node or child.rank != i:
                    raise TreeError("child/parent link mismatch")
                stack.append((child, region.split_part(self.k, i)))
        if visited != index.live or int(index.alive[: len(index)].sum()) != visited:
            raise TreeError("a live slot holds no materialised KT node")
        leaves = np.asarray(leaf_slots, dtype=np.int64)
        if not np.array_equal(index.resolve_leaves(index.start[leaves]), leaves):
            raise TreeError("leaf directory does not resolve a leaf's region")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnaryTree(k={self.k}, materialized={self.node_count})"
