"""Per-component Chord views: the ring each side of a partition sees.

A :class:`ComponentRingView` *is* a :class:`~repro.dht.chord.ChordRing`
over the physical nodes of one partition component: its constructor
snapshots the member nodes and the virtual servers they host, and every
query — scalar and vectorised — is the ring's own code over that
subset.  Regions *re-tile* over the component's virtual servers — the
arc owned by a virtual server extends back to its predecessor **within
the component** — so a K-nary tree built over the view is internally
consistent: leaf regions tile the full identifier space, every KT node
is planted on a component virtual server, and the LBI/VSA/VST phases
run unchanged.  Cross-component state is simply invisible, which is
exactly the semantics of a network partition.

Virtual servers that are detached in flight (a mid-round partition
caught their transfer between ``prepare`` and ``commit``) are hosted by
no node and therefore absent from every component view until the heal
re-homes them.

The same re-tiling serves the Byzantine defense: when
:class:`~repro.adversary.TrustedAggregation` quarantines nodes, the
balancer runs the whole round over a view of the trusted survivors, so
the regions owned by excluded nodes re-tile onto their trusted
component predecessors and no protocol phase routes through an
untrusted node.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from repro.dht.chord import ChordRing
from repro.dht.virtual_server import VirtualServer


class ComponentRingView(ChordRing):
    """A :class:`~repro.dht.chord.ChordRing` over one component's nodes.

    Parameters
    ----------
    ring:
        The underlying (whole) ring; removals delegate to it so churn
        inside a component stays visible after the heal.
    member_indices:
        Node indices of this component, in deterministic order.
    """

    def __init__(self, ring: ChordRing, member_indices: tuple[int, ...]) -> None:
        """Snapshot the component's nodes and the servers they host.

        The view's sorted index is the ring's, masked by one pass over
        the servers' owners: no re-sort and no per-identifier lookup.
        """
        super().__init__(ring.space)
        self.ring = ring
        members = frozenset(member_indices)
        self.nodes = [n for n in ring.nodes if n.index in members]
        if not ring.num_virtual_servers:
            return
        ring._ensure_index()
        ring_vs = ring._sorted_vs
        assert ring._sorted_ids is not None and ring_vs is not None
        keep = np.fromiter(
            (vs.owner.index in members for vs in ring_vs),
            dtype=bool,
            count=len(ring_vs),
        )
        kept = list(compress(ring_vs, keep.tolist()))
        hosted = sum(len(n.virtual_servers) for n in self.nodes)
        if len(kept) != hosted:
            # A server detached in flight still names its source as
            # owner, but no node hosts it.
            keep[keep] = on_node = [vs in vs.owner.virtual_servers for vs in kept]
            kept = list(compress(kept, on_node))
        if kept:
            self._sorted_ids = ring._sorted_ids[keep]
            self._sorted_vs = kept
            self._vs_by_id = {vs.vs_id: vs for vs in kept}

    def remove_virtual_server(self, vs: VirtualServer | int) -> VirtualServer:
        """Remove a server on the whole ring, then drop it from the view."""
        removed = self.ring.remove_virtual_server(vs)
        del self._vs_by_id[removed.vs_id]
        self._index_remove(removed.vs_id)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComponentRingView(nodes={len(self.nodes)}, "
            f"vs={len(self._vs_by_id)})"
        )
