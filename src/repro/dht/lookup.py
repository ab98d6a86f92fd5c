"""Chord finger-table routing (hop-count simulation).

The load balancer itself only needs ownership queries, but a faithful
Chord substrate must route: publishing VSA information under a Hilbert
key is a DHT ``put``, which costs ``O(log n)`` overlay hops.  This module
implements Chord's greedy clockwise finger routing over virtual servers
and returns the hop path, so experiments can account for publication
overhead.

Fingers are computed on demand from the ring's sorted identifier index
(finger ``i`` of a VS with id ``s`` is ``successor(s + 2^i)``), which is
equivalent to maintaining materialised finger tables on a stable ring and
stays consistent under churn for free.
"""

from __future__ import annotations

from repro.dht.chord import ChordRing
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import DHTError


def lookup_path(ring: ChordRing, start: VirtualServer | int, key: int) -> list[int]:
    """Route from ``start`` to the owner of ``key``; return VS ids visited.

    The first element is the starting VS id and the last is the owner of
    ``key``.  Routing follows Chord's rule: forward to the finger that is
    the closest *preceding* VS of the key, then take the final successor
    step.
    """
    ring.space.validate(key)
    start_vs = start if isinstance(start, VirtualServer) else ring.vs(int(start))
    owner = ring.successor(key)
    path = [start_vs.vs_id]
    current = start_vs
    size = ring.space.size
    max_steps = 4 * ring.space.bits + 4  # generous routing-loop guard
    while current is not owner:
        if len(path) > max_steps:
            raise DHTError("routing loop detected in Chord lookup")
        nxt = _closest_preceding_finger(ring, current, key)
        if nxt is current:
            # No finger strictly between us and the key: the successor
            # step completes the lookup.
            nxt = ring.successor(ring.space.wrap(current.vs_id + 1))
        path.append(nxt.vs_id)
        current = nxt
        # Termination: each hop at least halves the clockwise distance or
        # is the final successor hop.
        if current is owner:
            break
        if ring.space.distance_cw(current.vs_id, key) >= size:  # pragma: no cover
            raise DHTError("lookup failed to make progress")
    return path


def _closest_preceding_finger(
    ring: ChordRing, current: VirtualServer, key: int
) -> VirtualServer:
    """Best finger of ``current`` strictly inside ``(current, key)``.

    Scans finger targets from the largest span downwards, mirroring
    Chord's ``closest_preceding_node``.
    """
    space = ring.space
    gap = space.distance_cw(current.vs_id, key)
    for i in range(space.bits - 1, -1, -1):
        span = 1 << i
        if span >= gap:
            continue
        finger = ring.successor(space.wrap(current.vs_id + span))
        d = space.distance_cw(current.vs_id, finger.vs_id)
        if 0 < d < gap:
            return finger
    return current


def lookup_hops(ring: ChordRing, start: VirtualServer | int, key: int) -> int:
    """Number of overlay hops to resolve ``key`` from ``start``."""
    return len(lookup_path(ring, start, key)) - 1
