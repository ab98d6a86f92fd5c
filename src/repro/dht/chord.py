"""The Chord ring: consistent hashing over virtual servers.

The ring maps every identifier to the virtual server that *succeeds* it
clockwise: the VS with identifier ``s`` owns the half-open arc
``(predecessor(s), s]``.  The ring is the single source of truth for
region ownership; virtual servers and nodes only hold their own state.

Implementation notes
--------------------
Ownership queries are answered with a sorted NumPy identifier array and
``searchsorted`` (``O(log n)`` per query, vectorised for bulk queries).
Mutations (joins, leaves, transfers) mark the index dirty; it is rebuilt
lazily on the next query, so bursts of churn cost one rebuild.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.dht.node import PhysicalNode
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import DHTError, DuplicateIdError, EmptyRingError
from repro.idspace import IdentifierSpace, Region
from repro.util.rng import ensure_rng


class ChordRing:
    """A Chord identifier ring populated by virtual servers.

    Parameters
    ----------
    space:
        Identifier space of the ring (32-bit in the paper's experiments).

    Examples
    --------
    >>> ring = ChordRing(IdentifierSpace(bits=8))
    >>> nodes = ring.populate(num_nodes=4, vs_per_node=2, capacities=[1, 1, 1, 1], rng=0)
    >>> len(ring.virtual_servers)
    8
    """

    def __init__(self, space: IdentifierSpace | None = None) -> None:
        self.space = space if space is not None else IdentifierSpace()
        self.nodes: list[PhysicalNode] = []
        self._vs_by_id: dict[int, VirtualServer] = {}
        self._sorted_ids: np.ndarray | None = None
        self._sorted_vs: list[VirtualServer] | None = None
        self._listeners: list[Callable[[str, int], None]] = []

    # ------------------------------------------------------------------
    # Change notification
    # ------------------------------------------------------------------
    def add_listener(self, callback: Callable[[str, int], None]) -> None:
        """Subscribe ``callback(kind, vs_id)`` to ring membership changes.

        ``kind`` is ``"add"``, ``"remove"``, ``"transfer"`` (re-hosting
        only; the region map is unchanged) or ``"bulk"`` (a
        :meth:`populate` call; ``vs_id`` is ``-1`` and subscribers
        should re-derive their state from scratch).  Listeners observe
        every mutation that goes through the ring's API; they are how
        the incremental balancer keeps its dirty-region log without the
        ring knowing anything about trees or caches.
        """
        self._listeners.append(callback)

    def _notify(self, kind: str, vs_id: int) -> None:
        for callback in self._listeners:
            callback(kind, vs_id)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def populate(
        self,
        num_nodes: int,
        vs_per_node: int | Sequence[int],
        capacities: Sequence[float],
        rng: int | None | np.random.Generator = None,
        sites: Sequence[int] | None = None,
    ) -> list[PhysicalNode]:
        """Create ``num_nodes`` physical nodes with random virtual servers.

        Virtual-server identifiers are drawn uniformly at random from the
        identifier space (Chord's random placement); duplicates are
        redrawn.  ``capacities[i]`` becomes node ``i``'s capacity and
        ``sites[i]`` (optional) its topology vertex.  ``vs_per_node`` is
        either one count for every node or a per-node sequence (e.g. the
        CFS-style capacity-proportional allocation).
        """
        if num_nodes < 1:
            raise DHTError(f"num_nodes must be >= 1, got {num_nodes}")
        if isinstance(vs_per_node, int):
            counts = [vs_per_node] * num_nodes
        else:
            counts = [int(c) for c in vs_per_node]
            if len(counts) != num_nodes:
                raise DHTError(
                    f"vs_per_node has length {len(counts)}, expected {num_nodes}"
                )
        if any(c < 1 for c in counts):
            raise DHTError("every node needs at least one virtual server")
        if len(capacities) != num_nodes:
            raise DHTError(
                f"capacities has length {len(capacities)}, expected {num_nodes}"
            )
        if sites is not None and len(sites) != num_nodes:
            raise DHTError(f"sites has length {len(sites)}, expected {num_nodes}")
        total_vs = sum(counts)
        if total_vs > self.space.size:
            raise DHTError(
                f"cannot place {total_vs} virtual servers on a ring of size {self.space.size}"
            )
        gen = ensure_rng(rng)
        ids = self._draw_unique_ids(total_vs, gen)
        created: list[PhysicalNode] = []
        base_index = len(self.nodes)
        cursor = 0
        for i in range(num_nodes):
            node = PhysicalNode(
                index=base_index + i,
                capacity=capacities[i],
                site=None if sites is None else int(sites[i]),
            )
            for _ in range(counts[i]):
                vs = VirtualServer(int(ids[cursor]), node)
                cursor += 1
                node.virtual_servers.append(vs)
                self._vs_by_id[vs.vs_id] = vs
            self.nodes.append(node)
            created.append(node)
        self._invalidate()
        if self._listeners:
            self._notify("bulk", -1)
        return created

    def _draw_unique_ids(self, count: int, gen: np.random.Generator) -> np.ndarray:
        """Draw ``count`` ring identifiers not colliding with existing ones."""
        taken = set(self._vs_by_id)
        out: list[int] = []
        # Rejection sampling; collisions are vanishingly rare on a 32-bit
        # ring, but tiny test rings need the loop.
        attempts = 0
        while len(out) < count:
            need = count - len(out)
            draw = gen.integers(0, self.space.size, size=max(need * 2, 16))
            for v in draw.tolist():
                if v not in taken:
                    taken.add(v)
                    out.append(v)
                    if len(out) == count:
                        break
            attempts += 1
            if attempts > 1000:
                raise DHTError("identifier space too crowded to draw unique ids")
        return np.asarray(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._sorted_ids = None
        self._sorted_vs = None

    def _index_insert(self, vs: VirtualServer) -> None:
        """Patch a built index in place for one join.

        Inserting at the ``searchsorted`` position keeps ``_sorted_ids``
        exactly what a full rebuild would produce (identifiers are
        unique), at O(n) memmove instead of O(n log n) re-sort — the
        difference between minutes and seconds for churn bursts on
        ~10^6-VS rings.  A not-yet-built index stays lazy.
        """
        if self._sorted_ids is None:
            return
        assert self._sorted_vs is not None
        idx = int(np.searchsorted(self._sorted_ids, vs.vs_id, side="left"))
        self._sorted_ids = np.insert(self._sorted_ids, idx, vs.vs_id)
        self._sorted_vs.insert(idx, vs)

    def _index_remove(self, vs_id: int) -> None:
        """Patch a built index in place for one leave (see _index_insert)."""
        if self._sorted_ids is None:
            return
        if not self._vs_by_id:
            # The last server left: an empty ring has no index to query,
            # so lookups raise EmptyRingError instead of indexing [].
            self._invalidate()
            return
        assert self._sorted_vs is not None
        idx = int(np.searchsorted(self._sorted_ids, vs_id, side="left"))
        self._sorted_ids = np.delete(self._sorted_ids, idx)
        del self._sorted_vs[idx]

    def _ensure_index(self) -> None:
        if self._sorted_ids is not None:
            return
        if not self._vs_by_id:
            raise EmptyRingError("the Chord ring has no virtual servers")
        ids = np.fromiter(self._vs_by_id.keys(), dtype=np.int64, count=len(self._vs_by_id))
        order = np.argsort(ids)
        self._sorted_ids = ids[order]
        self._sorted_vs = [self._vs_by_id[int(i)] for i in self._sorted_ids]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def virtual_servers(self) -> list[VirtualServer]:
        """All virtual servers in ring (clockwise identifier) order."""
        self._ensure_index()
        assert self._sorted_vs is not None
        return list(self._sorted_vs)

    @property
    def num_virtual_servers(self) -> int:
        return len(self._vs_by_id)

    @property
    def alive_nodes(self) -> list[PhysicalNode]:
        """Physical nodes still participating in the ring."""
        return [n for n in self.nodes if n.alive]

    def vs(self, vs_id: int) -> VirtualServer:
        """Virtual server with exactly identifier ``vs_id``."""
        try:
            return self._vs_by_id[vs_id]
        except KeyError:
            raise DHTError(f"no virtual server with id {vs_id}") from None

    def successor(self, key: int) -> VirtualServer:
        """The virtual server owning ``key`` (first VS id >= key, wrapping)."""
        self.space.validate(key)
        self._ensure_index()
        assert self._sorted_ids is not None and self._sorted_vs is not None
        idx = int(np.searchsorted(self._sorted_ids, key, side="left"))
        if idx == len(self._sorted_ids):
            idx = 0
        return self._sorted_vs[idx]

    def host_with_region(self, key: int) -> tuple[VirtualServer, int, int]:
        """:meth:`successor` plus its owned region as raw ``(start, length)``.

        The scalar reference for :meth:`hosts_with_regions`, which is
        what the K-nary tree probes: one ``searchsorted`` yields both the
        owning virtual server and its predecessor.  The arithmetic
        mirrors :meth:`successor` followed by :meth:`region_of` exactly,
        including the full-ring convention for a single-VS ring.
        """
        self.space.validate(key)
        self._ensure_index()
        assert self._sorted_ids is not None and self._sorted_vs is not None
        ids = self._sorted_ids
        idx = int(np.searchsorted(ids, key, side="left"))
        if idx == len(ids):
            idx = 0
        vs = self._sorted_vs[idx]
        if len(ids) == 1:
            return vs, 0, self.space.size
        pred = int(ids[idx - 1])  # idx-1 == -1 wraps correctly
        size = self.space.size
        return vs, (pred + 1) % size, (vs.vs_id - pred) % size

    def successors(self, keys: np.ndarray) -> list[VirtualServer]:
        """Vectorised :meth:`successor` for an array of keys."""
        self._ensure_index()
        assert self._sorted_ids is not None and self._sorted_vs is not None
        idxs = np.searchsorted(self._sorted_ids, np.asarray(keys, dtype=np.int64), side="left")
        idxs[idxs == len(self._sorted_ids)] = 0
        return [self._sorted_vs[int(i)] for i in idxs]

    def predecessor_id(self, vs_id: int) -> int:
        """Identifier of the VS immediately preceding ``vs_id`` on the ring."""
        self._ensure_index()
        assert self._sorted_ids is not None
        idx = int(np.searchsorted(self._sorted_ids, vs_id, side="left"))
        if idx >= len(self._sorted_ids) or self._sorted_ids[idx] != vs_id:
            raise DHTError(f"no virtual server with id {vs_id}")
        return int(self._sorted_ids[idx - 1])  # idx-1 == -1 wraps correctly

    def region_of(self, vs: VirtualServer | int) -> Region:
        """The region ``(predecessor, vs_id]`` currently owned by ``vs``.

        With a single VS on the ring the region is the full ring.
        """
        vs_id = vs.vs_id if isinstance(vs, VirtualServer) else int(vs)
        if len(self._vs_by_id) == 1:
            if vs_id not in self._vs_by_id:
                raise DHTError(f"no virtual server with id {vs_id}")
            return Region.full(self.space)
        pred = self.predecessor_id(vs_id)
        start = self.space.wrap(pred + 1)
        length = self.space.distance_cw(pred, vs_id)
        return Region(self.space, start, length)

    def _owner_positions(self, keys: np.ndarray) -> np.ndarray:
        """Sorted-index positions of the servers owning ``keys``.

        Validates the keys, then one ``searchsorted`` over the sorted-id
        index answers the whole batch (a key past the last identifier
        wraps to position 0).
        """
        arr = np.asarray(keys, dtype=np.int64)
        size = self.space.size
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= size):
            bad = arr[(arr < 0) | (arr >= size)]
            self.space.validate(int(bad[0]))
        self._ensure_index()
        assert self._sorted_ids is not None
        idx = np.searchsorted(self._sorted_ids, arr, side="left")
        idx[idx == len(self._sorted_ids)] = 0
        return idx

    def _arcs_at(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owned arcs of the servers at sorted-index positions ``idx``.

        Raw ``(starts, lengths)`` int64 columns of each ``(predecessor,
        vs_id]``; a single-VS ring owns the full ring from 0.
        """
        ids = self._sorted_ids
        assert ids is not None
        size = self.space.size
        if len(ids) == 1:
            return (
                np.zeros(idx.size, dtype=np.int64),
                np.full(idx.size, size, dtype=np.int64),
            )
        pred = ids[idx - 1]  # idx-1 == -1 wraps correctly
        return (pred + 1) % size, (ids[idx] - pred) % size

    def arcs_of(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The arcs owning ``keys``, as raw ``(starts, lengths)`` columns.

        :meth:`hosts_with_regions` without the host list: what a cut
        that only tests region coverage needs (see
        :meth:`~repro.ktree.tree.KnaryTree.view_leaves`).
        """
        return self._arcs_at(self._owner_positions(keys))

    def hosts_with_regions(
        self, keys: np.ndarray
    ) -> tuple[list[VirtualServer], np.ndarray, np.ndarray]:
        """Vectorised :meth:`host_with_region` for an array of keys.

        Returns the owning virtual servers plus their owned arcs as raw
        ``(starts, lengths)`` int64 columns (:meth:`arcs_of`).  One
        ``searchsorted`` over the sorted-id index serves the whole
        batch; the arithmetic — including the full-ring convention for
        a single-VS ring — mirrors the scalar method exactly.  This is
        what lets every K-nary tree walk plant and leaf-test a whole
        tree level without per-node index probes.
        """
        idx = self._owner_positions(keys)
        assert self._sorted_vs is not None
        hosts = [self._sorted_vs[i] for i in idx.tolist()]
        starts, lengths = self._arcs_at(idx)
        return hosts, starts, lengths

    def centers_of(self, vs_ids: np.ndarray) -> np.ndarray:
        """Vectorized ``region_of(vs).center`` for registered identifiers.

        One ``searchsorted`` over the sorted-id index replaces a
        per-identifier predecessor lookup; each arc comes from the same
        arithmetic as :meth:`arcs_of`, and its center is
        :meth:`IdentifierSpace.midpoint`'s ``start + length // 2``.
        """
        arr = np.asarray(vs_ids, dtype=np.int64)
        self._ensure_index()
        assert self._sorted_ids is not None
        ids = self._sorted_ids
        pos = np.minimum(np.searchsorted(ids, arr, side="left"), len(ids) - 1)
        bad = ids[pos] != arr
        if bad.any():
            raise DHTError(f"no virtual server with id {int(arr[bad][0])}")
        starts, lengths = self._arcs_at(pos)
        return (starts + lengths // 2) % self.space.size

    def fractions(self) -> np.ndarray:
        """Identifier-space fraction ``f`` owned by each VS, in ring order.

        These are the ``f`` values the paper's load generators consume;
        for random placement they are (approximately) exponentially
        distributed with mean ``1 / num_virtual_servers``.
        """
        self._ensure_index()
        assert self._sorted_ids is not None
        ids = self._sorted_ids
        gaps = np.empty(len(ids), dtype=np.float64)
        if len(ids) == 1:
            gaps[0] = self.space.size
        else:
            gaps[1:] = np.diff(ids)
            gaps[0] = (ids[0] - ids[-1]) % self.space.size
        return gaps / self.space.size

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_virtual_server(self, node: PhysicalNode, vs_id: int, load: float = 0.0) -> VirtualServer:
        """Join a new virtual server with identifier ``vs_id`` onto ``node``."""
        self.space.validate(vs_id)
        if vs_id in self._vs_by_id:
            raise DuplicateIdError(f"virtual server id {vs_id} already on the ring")
        vs = VirtualServer(vs_id, node, load)
        node.virtual_servers.append(vs)
        self._vs_by_id[vs_id] = vs
        self._index_insert(vs)
        if self._listeners:
            self._notify("add", vs_id)
        return vs

    def remove_virtual_server(self, vs: VirtualServer | int) -> VirtualServer:
        """Remove a virtual server from the ring (a DHT *leave*).

        Its region is implicitly absorbed by its ring successor; its load
        is dropped (callers that model object re-hosting should move the
        load explicitly before removal).
        """
        vs_obj = vs if isinstance(vs, VirtualServer) else self.vs(int(vs))
        if vs_obj.vs_id not in self._vs_by_id:
            raise DHTError(f"virtual server {vs_obj.vs_id} is not on the ring")
        del self._vs_by_id[vs_obj.vs_id]
        vs_obj.owner.unhost(vs_obj)
        self._index_remove(vs_obj.vs_id)
        if self._listeners:
            self._notify("remove", vs_obj.vs_id)
        return vs_obj

    def transfer_virtual_server(self, vs: VirtualServer | int, target: PhysicalNode) -> VirtualServer:
        """Move a virtual server to another physical node (VST).

        Structurally this is a leave followed by a join with the *same*
        identifier, so the ring's region map is unchanged — only the
        hosting (and therefore the load placement) moves.
        """
        vs_obj = vs if isinstance(vs, VirtualServer) else self.vs(int(vs))
        if not target.alive:
            raise DHTError(f"cannot transfer to dead node {target.index}")
        if vs_obj.owner is target:
            return vs_obj
        vs_obj.owner.unhost(vs_obj)
        target.host(vs_obj)
        if self._listeners:
            self._notify("transfer", vs_obj.vs_id)
        return vs_obj

    def check_invariants(self) -> None:
        """Validate cross-references; raises :class:`DHTError` on corruption.

        Checked invariants: every VS is hosted by its owner; every hosted
        VS is registered; regions tile the full ring exactly.
        """
        for node in self.nodes:
            for vs in node.virtual_servers:
                if vs.owner is not node:
                    raise DHTError(
                        f"vs {vs.vs_id} hosted by node {node.index} but owned by {vs.owner.index}"
                    )
                if self._vs_by_id.get(vs.vs_id) is not vs:
                    raise DHTError(f"vs {vs.vs_id} hosted but not registered on the ring")
        for vs in self._vs_by_id.values():
            if vs not in vs.owner.virtual_servers:
                raise DHTError(f"vs {vs.vs_id} registered but not hosted by its owner")
        total = sum(self.region_of(v).length for v in self._vs_by_id.values())
        if total != self.space.size:
            raise DHTError(
                f"regions cover {total} identifiers, expected {self.space.size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChordRing(bits={self.space.bits}, nodes={len(self.nodes)}, "
            f"vs={len(self._vs_by_id)})"
        )
