"""Object-level storage on top of the virtual-server abstraction.

The paper treats "load" abstractly but motivates the Gaussian model by
"a large number of small objects ... the individual loads on these
objects are independent".  This module provides that concrete substrate:
named objects with individual loads are ``put`` into the DHT, land on
the virtual server owning their key, and the virtual server's load is
the sum of its objects' loads.

It also gives virtual-server transfers their physical meaning: moving a
VS moves its objects, and the transfer *bytes* are the sum of object
sizes — the quantity the proximity-aware scheme is minimising the
network distance for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.chord import ChordRing
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import DHTError
from repro.idspace.hashing import hash_to_id
from repro.util.rng import ensure_rng


@dataclass(frozen=True, slots=True)
class StoredObject:
    """One object stored in the DHT."""

    key: int
    name: str
    load: float
    size: float  # bytes moved when the hosting VS transfers

    def __post_init__(self) -> None:
        if self.load < 0 or self.size < 0:
            raise DHTError(f"object load/size must be non-negative: {self!r}")


class ObjectStore:
    """Object placement and per-virtual-server load accounting.

    The store is an overlay over a :class:`ChordRing`: objects map to the
    virtual server owning their key.  Virtual-server ``load`` fields are
    kept in sync with the objects they host, so the load balancer runs
    unchanged on top of object-level workloads.

    Ring structure changes (VS joins/leaves) change ownership; call
    :meth:`rehome` afterwards to re-sync placement (in a real DHT this is
    the object handoff the join/leave protocol performs).
    """

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        # Objects are indexed by name; several names may hash to the same
        # key (they simply co-locate on the key's owner).
        self._objects: dict[str, StoredObject] = {}
        self._by_vs: dict[int, set[str]] = {}  # vs_id -> object names

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return len(self._objects)

    @property
    def total_load(self) -> float:
        return sum(o.load for o in self._objects.values())

    def objects_on(self, vs: VirtualServer | int) -> list[StoredObject]:
        vs_id = vs.vs_id if isinstance(vs, VirtualServer) else int(vs)
        return [self._objects[n] for n in sorted(self._by_vs.get(vs_id, ()))]

    # ------------------------------------------------------------------
    def put(self, name: str, load: float, size: float = 1.0) -> StoredObject:
        """Insert an object under ``hash(name)``; returns the stored record.

        Re-putting an existing name replaces the object (load accounting
        adjusts accordingly).
        """
        key = hash_to_id(name, self.ring.space)
        obj = StoredObject(key=key, name=name, load=float(load), size=float(size))
        vs = self.ring.successor(key)
        old = self._objects.get(name)
        if old is not None:
            vs.load -= old.load
        self._objects[name] = obj
        self._by_vs.setdefault(vs.vs_id, set()).add(name)
        vs.load += obj.load
        return obj

    def get(self, name: str) -> StoredObject:
        """Look up an object by name; raises :class:`DHTError` if absent."""
        try:
            return self._objects[name]
        except KeyError:
            raise DHTError(f"no object named {name!r}") from None

    def delete(self, name: str) -> StoredObject:
        """Remove an object, adjusting its host's load."""
        obj = self.get(name)
        vs = self.ring.successor(obj.key)
        del self._objects[name]
        self._by_vs.get(vs.vs_id, set()).discard(name)
        vs.load -= obj.load
        return obj

    def add_load(self, name: str, delta: float) -> StoredObject:
        """Accrue demand-driven load onto an object (e.g. query service).

        Keeping the load on the *object* (rather than directly on the
        virtual server) means it survives re-homing and moves with the
        object during virtual-server transfers.
        """
        obj = self.get(name)
        new_load = obj.load + delta
        if new_load < 0:
            raise DHTError(
                f"object {name!r} load would become negative ({new_load})"
            )
        updated = StoredObject(
            key=obj.key, name=name, load=new_load, size=obj.size
        )
        self._objects[name] = updated
        self.ring.successor(obj.key).load += delta
        return updated

    # ------------------------------------------------------------------
    def populate(
        self,
        num_objects: int,
        mean_load: float,
        rng: int | None | np.random.Generator = None,
        popularity: str = "uniform",
        zipf_s: float = 1.2,
        name_prefix: str = "obj",
    ) -> list[StoredObject]:
        """Insert ``num_objects`` synthetic objects.

        ``popularity="uniform"`` draws i.i.d. exponential loads with the
        given mean (many small independent objects — the paper's Gaussian
        justification); ``"zipf"`` draws loads proportional to a Zipf
        rank distribution with exponent ``zipf_s`` (hotspot workloads).
        Object size is set equal to load (bytes proportional to work).
        """
        if num_objects < 0:
            raise DHTError(f"cannot create {num_objects} objects")
        gen = ensure_rng(rng)
        if popularity == "uniform":
            loads = gen.exponential(mean_load, size=num_objects)
        elif popularity == "zipf":
            ranks = np.arange(1, num_objects + 1, dtype=np.float64)
            weights = ranks ** (-zipf_s)
            loads = mean_load * num_objects * weights / weights.sum()
            gen.shuffle(loads)
        else:
            raise DHTError(f"unknown popularity model {popularity!r}")
        return [
            self.put(f"{name_prefix}-{i}", float(loads[i]), size=float(loads[i]))
            for i in range(num_objects)
        ]

    # ------------------------------------------------------------------
    def rehome(self) -> int:
        """Re-sync object placement after ring-structure changes.

        Returns the number of objects that changed hosting virtual
        server.  Loads of all virtual servers are recomputed from their
        objects, so any stale handover approximations (e.g. the
        proportional split performed by :func:`repro.dht.churn.join_node`)
        are replaced by exact object-level accounting.
        """
        moved = 0
        new_by_vs: dict[int, set[str]] = {}
        for name, obj in self._objects.items():
            vs = self.ring.successor(obj.key)
            new_by_vs.setdefault(vs.vs_id, set()).add(name)
        for vs in self.ring.virtual_servers:
            old = self._by_vs.get(vs.vs_id, set())
            new = new_by_vs.get(vs.vs_id, set())
            moved += len(new - old)
            # Sum in sorted-name order: float addition is order-sensitive,
            # and set order varies with insertion history.
            vs.load = sum(self._objects[n].load for n in sorted(new))
        self._by_vs = new_by_vs
        return moved

    def check_consistency(self) -> None:
        """Verify placement and load accounting; raises on drift."""
        for vs in self.ring.virtual_servers:
            expected = sum(
                self._objects[n].load
                for n in sorted(self._by_vs.get(vs.vs_id, ()))
            )
            if abs(vs.load - expected) > 1e-6 * max(1.0, expected):
                raise DHTError(
                    f"vs {vs.vs_id} load {vs.load} != object sum {expected}"
                )
            region = self.ring.region_of(vs)
            for n in sorted(self._by_vs.get(vs.vs_id, ())):
                if not region.contains(self._objects[n].key):
                    raise DHTError(
                        f"object {n!r} stored on vs {vs.vs_id} outside its region"
                    )

    def transfer_bytes(self, vs: VirtualServer | int) -> float:
        """Bytes that moving ``vs`` would put on the wire (object sizes)."""
        vs_id = vs.vs_id if isinstance(vs, VirtualServer) else int(vs)
        return sum(
            self._objects[n].size for n in sorted(self._by_vs.get(vs_id, ()))
        )
