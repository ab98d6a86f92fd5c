"""Placement strategies: where VSA information is published in the DHT.

The *only* difference between the paper's proximity-aware and
proximity-ignorant load balancers is the key under which a heavy/light
node publishes its VSA information:

* :class:`ProximityPlacement` — the node's Hilbert number derived from
  its landmark vector (Section 4.3), so physically close nodes publish
  under nearby keys;
* :class:`RandomVSPlacement` — the identifier of one of the node's own
  (randomly chosen) virtual servers, i.e. an effectively random ring
  position (Section 3.4's footnote: "the location of a DHT node in the
  identifier space is represented by its randomly chosen virtual
  server").
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.dht.chord import ChordRing
from repro.dht.node import PhysicalNode
from repro.exceptions import BalancerError
from repro.idspace import IdentifierSpace
from repro.idspace.hashing import hash_to_id
from repro.proximity.mapping import ProximityMapper
from repro.util.rng import ensure_rng


class PlacementStrategy(Protocol):
    """Maps nodes to the DHT keys under which their VSA info is published."""

    def keys_for(self, nodes: list[PhysicalNode]) -> list[int]:  # pragma: no cover
        ...


class ProximityPlacement:
    """Hilbert-number placement from per-node landmark vectors.

    Parameters
    ----------
    mapper:
        Fitted :class:`~repro.proximity.mapping.ProximityMapper`.
    vectors_by_node:
        ``node.index -> landmark vector`` for every node that may publish.
    space:
        The DHT identifier space keys must land on.
    """

    def __init__(
        self,
        mapper: ProximityMapper,
        vectors_by_node: dict[int, np.ndarray],
        space: IdentifierSpace,
    ) -> None:
        self.mapper = mapper
        self.space = space
        self._keys: dict[int, int] = {}
        if vectors_by_node:
            indices = list(vectors_by_node.keys())
            matrix = np.vstack([vectors_by_node[i] for i in indices])
            keys = mapper.dht_keys(matrix, space)
            self._keys = {i: int(k) for i, k in zip(indices, keys)}

    def key_for(self, node: PhysicalNode) -> int:
        try:
            return self._keys[node.index]
        except KeyError:
            raise BalancerError(
                f"no landmark vector registered for node {node.index}"
            ) from None

    def keys_for(self, nodes: list[PhysicalNode]) -> list[int]:
        """:meth:`key_for` over ``nodes``, in order (a pure lookup)."""
        return [self.key_for(node) for node in nodes]


class RandomVSPlacement:
    """Publish at the ring position of one randomly chosen own VS.

    The published key is the *center* of the chosen virtual server's
    region: semantically the same random ring location, but the KT leaf
    covering a region's center has depth ``O(log #VS)``, whereas the
    leaf covering the region's boundary identifier can be as deep as the
    ring's full bit width (a 1-identifier dyadic interval).
    """

    def __init__(
        self, ring: "ChordRing", rng: int | None | np.random.Generator = None
    ) -> None:
        self._ring = ring
        self._gen = ensure_rng(rng)

    def key_for(self, node: PhysicalNode) -> int:
        if not node.virtual_servers:
            # A node that shed everything still advertises spare capacity;
            # publish at its notional (hashed) ring position.
            return hash_to_id(f"node-{node.index}", self._ring.space)
        vs = node.virtual_servers[int(self._gen.integers(len(node.virtual_servers)))]
        return self._ring.region_of(vs).center

    def keys_for(self, nodes: list[PhysicalNode]) -> list[int]:
        """Batched :meth:`key_for` over ``nodes``, in order.

        Stream-identical to sequential :meth:`key_for` calls: nodes with
        virtual servers consume exactly one generator draw each (one
        batched ``integers(0, counts)`` call emits the same variates),
        vs-less nodes consume none, and region centers come from the
        ring's vectorized predecessor lookup.
        """
        counts = np.array(
            [len(n.virtual_servers) for n in nodes if n.virtual_servers],
            dtype=np.int64,
        )
        draws = (
            self._gen.integers(0, counts)
            if counts.size
            else np.empty(0, dtype=np.int64)
        )
        chosen: list[int] = []
        pos = 0
        for node in nodes:
            if node.virtual_servers:
                chosen.append(node.virtual_servers[int(draws[pos])].vs_id)
                pos += 1
        centers = (
            self._ring.centers_of(np.asarray(chosen, dtype=np.int64))
            if chosen
            else np.empty(0, dtype=np.int64)
        )
        keys: list[int] = []
        pos = 0
        for node in nodes:
            if node.virtual_servers:
                keys.append(int(centers[pos]))
                pos += 1
            else:
                keys.append(hash_to_id(f"node-{node.index}", self._ring.space))
        return keys
