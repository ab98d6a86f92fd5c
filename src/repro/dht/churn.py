"""Churn primitives: node join, graceful leave, and crash.

The paper's K-nary tree must survive membership churn (Section 3.1.1);
these helpers drive the ring through the corresponding structural
changes so the tree-repair experiments can exercise them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dht.chord import ChordRing
from repro.dht.node import PhysicalNode
from repro.exceptions import DHTError
from repro.util.rng import ensure_rng


@dataclass
class ChurnStats:
    """Counters accumulated while driving churn."""

    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    vs_created: int = 0
    vs_removed: int = 0
    load_reassigned: float = 0.0
    events: list[str] = field(default_factory=list)


def join_node(
    ring: ChordRing,
    capacity: float,
    vs_count: int,
    rng: int | None | np.random.Generator = None,
    site: int | None = None,
    stats: ChurnStats | None = None,
) -> PhysicalNode:
    """Join a fresh physical node with ``vs_count`` random virtual servers.

    Each new virtual server splits the region of its ring successor; in a
    real deployment the successor would hand over the objects in the split
    arc.  We model that by moving a proportional share of the successor's
    load onto the new VS.
    """
    if vs_count < 1:
        raise DHTError(f"vs_count must be >= 1, got {vs_count}")
    gen = ensure_rng(rng)
    node = PhysicalNode(index=len(ring.nodes), capacity=capacity, site=site)
    ring.nodes.append(node)
    for _ in range(vs_count):
        vs_id = _draw_free_id(ring, gen)
        old_owner_vs = ring.successor(vs_id)
        old_region = ring.region_of(old_owner_vs)
        new_vs = ring.add_virtual_server(node, vs_id)
        # Proportional load handover from the split successor region.
        new_region = ring.region_of(new_vs)
        if old_region.length > 0 and old_owner_vs.load > 0:
            share = old_owner_vs.load * (new_region.length / old_region.length)
            old_owner_vs.load -= share
            new_vs.load += share
            if stats is not None:
                stats.load_reassigned += share
        if stats is not None:
            stats.vs_created += 1
    if stats is not None:
        stats.joins += 1
        stats.events.append(f"join node {node.index}")
    return node


def leave_node(ring: ChordRing, node: PhysicalNode, stats: ChurnStats | None = None) -> None:
    """Graceful leave: the node hands each VS's load to its ring successor."""
    _depart(ring, node, hand_over_load=True, stats=stats)
    if stats is not None:
        stats.leaves += 1
        stats.events.append(f"leave node {node.index}")


def crash_node(ring: ChordRing, node: PhysicalNode, stats: ChurnStats | None = None) -> None:
    """Crash: virtual servers vanish; successors absorb regions and load.

    Load still moves to the successor because in a storage DHT replicas
    re-materialise the objects at the new owner; what is *lost* is the
    node's soft state — including any K-nary tree nodes it hosted, which
    is exactly what the tree-repair experiments stress.
    """
    _depart(ring, node, hand_over_load=True, stats=stats)
    if stats is not None:
        stats.crashes += 1
        stats.events.append(f"crash node {node.index}")


def _depart(ring: ChordRing, node: PhysicalNode, hand_over_load: bool, stats: ChurnStats | None) -> None:
    if not node.alive:
        raise DHTError(f"node {node.index} already departed")
    if len(node.virtual_servers) == ring.num_virtual_servers:
        raise DHTError("cannot remove the last node of the ring")
    for vs in list(node.virtual_servers):
        load = vs.load
        ring.remove_virtual_server(vs)
        if hand_over_load and load > 0:
            successor_vs = ring.successor(vs.vs_id)
            successor_vs.load += load
            if stats is not None:
                stats.load_reassigned += load
        if stats is not None:
            stats.vs_removed += 1
    node.alive = False


def _draw_free_id(ring: ChordRing, gen: np.random.Generator) -> int:
    for _ in range(10_000):
        vs_id = int(gen.integers(0, ring.space.size))
        try:
            ring.vs(vs_id)
        except DHTError:
            return vs_id
    raise DHTError("could not find a free identifier")  # pragma: no cover
