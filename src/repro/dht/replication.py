"""Successor-list replication: the crash-tolerance substrate.

The paper's self-repair story relies on the DHT re-materialising state
after crashes ("the responsible regions of the virtual servers of the
crashing DHT node will be taken over by other virtual servers after
repair").  This module supplies the mechanism a real Chord deployment
uses: each virtual server replicates its objects onto its ``r`` ring
successors, so when a node crashes the new owner of each region already
holds the data.

The replica map is *soft state*: :meth:`ReplicationManager.refresh`
recomputes it from the current ring, and
:meth:`ReplicationManager.available_after_crash` answers whether a
region's objects survived a given crash set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dht.chord import ChordRing
from repro.exceptions import DHTError


@dataclass(frozen=True, slots=True)
class ReplicaSet:
    """The nodes holding copies of one virtual server's objects."""

    vs_id: int
    primary_node: int
    replica_nodes: tuple[int, ...]

    @property
    def all_holders(self) -> tuple[int, ...]:
        return (self.primary_node, *self.replica_nodes)


class ReplicationManager:
    """Maintains successor-list replica placement for every virtual server.

    Parameters
    ----------
    ring:
        The Chord ring.
    replication_factor:
        Number of *distinct physical nodes* (beyond the primary) that
        hold each region's objects.  Chord's successor-list rule: walk
        the ring clockwise collecting virtual servers until ``r``
        distinct other nodes are found.
    """

    def __init__(self, ring: ChordRing, replication_factor: int = 2) -> None:
        if replication_factor < 0:
            raise DHTError("replication_factor must be >= 0")
        self.ring = ring
        self.replication_factor = replication_factor
        self._replicas: dict[int, ReplicaSet] = {}
        self.refresh()

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute replica placement from the current ring (soft state)."""
        self._replicas.clear()
        vss = self.ring.virtual_servers
        n = len(vss)
        for i, vs in enumerate(vss):
            holders: list[int] = []
            j = (i + 1) % n
            while len(holders) < self.replication_factor and j != i:
                owner_idx = vss[j].owner.index
                if owner_idx != vs.owner.index and owner_idx not in holders:
                    holders.append(owner_idx)
                j = (j + 1) % n
            self._replicas[vs.vs_id] = ReplicaSet(
                vs_id=vs.vs_id,
                primary_node=vs.owner.index,
                replica_nodes=tuple(holders),
            )

    # ------------------------------------------------------------------
    def available_after_crash(self, crashed_nodes: set[int]) -> dict[int, bool]:
        """Which regions' objects survive if ``crashed_nodes`` all fail at once.

        A region survives when at least one holder (primary or replica)
        is outside the crash set.  With ``r`` replicas on distinct nodes
        any crash of at most ``r`` nodes loses nothing — the guarantee
        the tests assert.
        """
        return {
            vs_id: any(h not in crashed_nodes for h in rs.all_holders)
            for vs_id, rs in self._replicas.items()
        }
