"""Physical DHT nodes with heterogeneous capacities.

A physical node hosts several virtual servers and is attached to one
vertex ("site") of the underlying Internet topology; transfer costs and
landmark distances are measured between sites.
"""

from __future__ import annotations

from typing import Iterable

from repro.dht.virtual_server import VirtualServer
from repro.exceptions import DHTError


class PhysicalNode:
    """A physical peer in the P2P system.

    Attributes
    ----------
    index:
        Dense integer identity of the node within its ring (also used as
        the simulated IP address in VSA records).
    capacity:
        The node's capacity ``C_i`` (bandwidth/storage/CPU abstraction).
        The Gnutella-like profile of the paper assigns values from
        ``{1, 10, 1e2, 1e3, 1e4}``.
    site:
        Vertex of the underlying topology graph this peer sits on, or
        ``None`` when no topology is attached (pure identifier-space
        experiments such as figures 4-6).
    virtual_servers:
        The virtual servers currently hosted.  Maintained by the ring and
        by transfer operations; do not mutate directly.
    """

    __slots__ = ("index", "capacity", "site", "virtual_servers", "alive")

    def __init__(
        self,
        index: int,
        capacity: float,
        site: int | None = None,
        virtual_servers: Iterable[VirtualServer] | None = None,
    ) -> None:
        if capacity <= 0:
            raise DHTError(f"node capacity must be positive, got {capacity}")
        self.index = int(index)
        self.capacity = float(capacity)
        self.site = site
        self.virtual_servers: list[VirtualServer] = list(virtual_servers or ())
        self.alive = True

    # ------------------------------------------------------------------
    @property
    def load(self) -> float:
        """Total load ``L_i``: sum over hosted virtual servers."""
        return sum(vs.load for vs in self.virtual_servers)

    @property
    def min_vs_load(self) -> float:
        """Minimum virtual-server load ``L_{i,min}`` on this node.

        Part of the LBI triple ``<L_i, C_i, L_{i,min}>``; undefined
        (raises) when the node hosts no virtual servers.
        """
        if not self.virtual_servers:
            raise DHTError(f"node {self.index} hosts no virtual servers")
        return min(vs.load for vs in self.virtual_servers)

    def host(self, vs: VirtualServer) -> None:
        """Attach a virtual server to this node (bookkeeping helper)."""
        if vs.owner is not self and vs in self.virtual_servers:
            raise DHTError("virtual server already hosted with stale owner")
        vs.owner = self
        if vs not in self.virtual_servers:
            self.virtual_servers.append(vs)

    def unhost(self, vs: VirtualServer) -> None:
        """Detach a virtual server from this node."""
        try:
            self.virtual_servers.remove(vs)
        except ValueError:
            raise DHTError(
                f"virtual server {vs.vs_id} is not hosted by node {self.index}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PhysicalNode(index={self.index}, capacity={self.capacity:g}, "
            f"vs={len(self.virtual_servers)}, load={self.load:.3g})"
        )
