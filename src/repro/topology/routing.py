"""Shortest-path distance oracle: per-source rows and a domain separator.

Transfer costs and landmark vectors are weighted shortest-path distances
in the topology.  An all-pairs matrix for 5000 vertices would cost
~200 MB; instead the oracle answers two kinds of query:

* **Rows** (:meth:`DistanceOracle.distances_from`,
  :meth:`~DistanceOracle.distances_from_many`) run single-source
  Dijkstra (scipy, C speed) on demand and cache the rows in float32, so
  the cost is proportional to the sources actually touched (landmarks).
* **Pairs** (:meth:`DistanceOracle.distances_between`,
  :meth:`~DistanceOracle.distance`) go through the graph's domain
  separators when the topology has them.  Vertices are partitioned by
  :meth:`~repro.topology.graph.Topology.stub_domain_of`; a vertex with
  an edge leaving its domain is a *boundary* vertex.  Any path from
  ``u`` that leaves ``u``'s domain ``D`` first exits through a boundary
  vertex ``b`` of ``D``, so

      d(u, v) = min(d_in(u, v) if v in D, min_b d_in(u, b) + d(b, v))

  where ``d_in`` is the distance inside ``D``'s induced subgraph.  The
  oracle computes one full row per boundary vertex plus a small
  all-pairs ``d_in`` table per domain, once, on the first pair query.
  On ts5k-large that is 430 rows instead of one row per distinct
  transfer endpoint (thousands).

The separator engages only when it pays and is exact: more than one
domain, at most a quarter of the vertices on a boundary, and integer
edge weights whose total fits float32's exact-integer range (so the
float32 sums equal the float32 rows bit for bit).  Otherwise pair
queries fall back to cached per-source rows.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.exceptions import TopologyError
from repro.topology.graph import Topology

#: float32 represents every integer up to 2**24 exactly.
_FLOAT32_EXACT = 1 << 24


@dataclass(frozen=True, slots=True)
class _Separator:
    """Boundary rows and per-domain inner distances of one topology.

    ``domain[v]`` is the domain of vertex ``v`` and ``local[v]`` its
    index among the domain's members (in vertex order).  ``block`` holds
    one full-graph float32 row per boundary vertex.  For domain ``d``,
    ``inner[d]`` is the all-pairs distance table of its induced
    subgraph, ``exits[d]`` the local indices of its boundary vertices
    and ``exit_rows[d]`` their rows in ``block``.
    """

    domain: np.ndarray
    local: np.ndarray
    block: np.ndarray
    inner: list[np.ndarray]
    exits: list[np.ndarray]
    exit_rows: list[np.ndarray]

    def between(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exact distances for the pairs ``(u[i], v[i])``, grouped by ``u``'s domain."""
        out = np.empty(len(u), dtype=np.float32)
        du = self.domain[u]
        order = np.argsort(du, kind="stable")
        cuts = np.flatnonzero(np.diff(du[order])) + 1
        for group in np.split(order, cuts) if len(u) else ():
            d = int(du[group[0]])
            gu, gv = u[group], v[group]
            lu = self.local[gu]
            inner = self.inner[d]
            # (k x m): leave through each exit b, then b's full row.
            via = (
                inner[lu[:, None], self.exits[d]]
                + self.block[self.exit_rows[d][:, None], gv].T
            )
            best = via.min(axis=1)
            same = self.domain[gv] == d
            if same.any():
                best[same] = np.minimum(best[same], inner[lu[same], self.local[gv[same]]])
            out[group] = best
        return out


class DistanceOracle:
    """Cached shortest-path queries over a :class:`Topology`.

    Row queries run single-source Dijkstra and cache rows in an LRU;
    pair queries use the domain separator (see the module docstring)
    when the topology admits one, built lazily on the first pair query
    and kept outside the LRU.

    Parameters
    ----------
    topology:
        The weighted graph to answer queries on.
    max_cached_rows:
        LRU bound on cached source rows (each row is ``4 * n`` bytes).
        ``None`` means unbounded.
    """

    def __init__(
        self, topology: Topology, max_cached_rows: int | None = None
    ) -> None:
        self.topology = topology
        self._csr = topology.csr()
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._max_rows = max_cached_rows
        # Instrumentation for tests/benchmarks: full-graph rows computed,
        # separator boundary rows included.
        self.dijkstra_runs = 0

    # ------------------------------------------------------------------
    def distances_from(self, source: int) -> np.ndarray:
        """Distances (latency units) from ``source`` to every vertex."""
        self._validate(source)
        row = self._rows.get(source)
        if row is not None:
            self._rows.move_to_end(source)
            return row
        dist = dijkstra(self._csr, directed=False, indices=source)
        row = dist.astype(np.float32)
        self._rows[source] = row
        self.dijkstra_runs += 1
        if self._max_rows is not None and len(self._rows) > self._max_rows:
            self._rows.popitem(last=False)
        return row

    def distances_from_many(self, sources: np.ndarray | list[int]) -> np.ndarray:
        """Stacked distance rows for several sources (shape ``(k, n)``).

        Uncached sources are deduplicated and computed in one scipy
        call, which is much faster than one call per source.  Every
        requested row is pinned in a local map for the duration of the
        call and the LRU is trimmed only after the result is stacked —
        evicting mid-batch used to recompute rows this very call had
        just produced whenever the batch exceeded ``max_cached_rows``.
        """
        src = [int(s) for s in sources]
        for s in src:
            self._validate(s)
        rows: dict[int, np.ndarray] = {}
        missing: list[int] = []
        seen_missing: set[int] = set()
        for s in src:
            if s in rows or s in seen_missing:
                continue
            cached = self._rows.get(s)
            if cached is not None:
                self._rows.move_to_end(s)
                rows[s] = cached
            else:
                missing.append(s)
                seen_missing.add(s)
        if missing:
            dist = np.atleast_2d(
                dijkstra(self._csr, directed=False, indices=missing)
            )
            for i, s in enumerate(missing):
                row = dist[i].astype(np.float32)
                rows[s] = row
                self._rows[s] = row
                self.dijkstra_runs += 1
        result = np.stack([rows[s] for s in src])
        if self._max_rows is not None:
            while len(self._rows) > self._max_rows:
                self._rows.popitem(last=False)
        return result

    def distance(self, u: int, v: int) -> float:
        """Shortest-path distance between two vertices."""
        return float(self.distances_between([(u, v)])[0])

    def distances_between(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Distances for a batch of vertex pairs.

        With a domain separator every pair is answered from the boundary
        rows, vectorised per source domain.  Otherwise sources are
        grouped so each distinct source costs one Dijkstra; the cheaper
        endpoint of each pair (already-cached one if any) is used as the
        source.
        """
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        bad = ends[(ends < 0) | (ends >= self.topology.num_vertices)]
        if len(bad):
            self._validate(int(bad[0]))
        separator = self._separator
        if separator is not None:
            return separator.between(ends[:, 0], ends[:, 1]).astype(np.float64)
        out = np.empty(len(pairs), dtype=np.float64)
        # Group by source, preferring endpoints already cached.
        needed: dict[int, list[tuple[int, int]]] = {}
        for idx, (u, v) in enumerate(pairs):
            if u in self._rows:
                out[idx] = float(self._rows[u][v])
            elif v in self._rows:
                out[idx] = float(self._rows[v][u])
            else:
                needed.setdefault(u, []).append((idx, v))
        if needed:
            # Read rows off the returned stack, not the cache: with a
            # tight LRU bound the batch itself may evict earlier rows.
            stacked = self.distances_from_many(list(needed.keys()))
            for row, items in zip(stacked, needed.values()):
                for idx, v in items:
                    out[idx] = float(row[v])
        return out

    # ------------------------------------------------------------------
    @cached_property
    def _separator(self) -> _Separator | None:
        """The domain separator, built on the first pair query.

        ``None`` when it would not pay or would not be exact; pair
        queries then use per-source rows.
        """
        n = self.topology.num_vertices
        weights = self._csr.data
        if not (
            np.array_equal(weights, np.rint(weights))
            and weights.sum() < _FLOAT32_EXACT
        ):
            return None
        labels: dict[tuple[int, int | None], int] = {}
        domain = np.fromiter(
            (
                labels.setdefault(self.topology.stub_domain_of(v), len(labels))
                for v in range(n)
            ),
            dtype=np.int64,
            count=n,
        )
        coo = self._csr.tocoo()
        crossing = domain[coo.row] != domain[coo.col]
        is_boundary = np.zeros(n, dtype=bool)
        is_boundary[coo.row[crossing]] = True
        boundary = np.flatnonzero(is_boundary)
        if len(labels) < 2 or 4 * len(boundary) > n:
            return None
        block = np.atleast_2d(
            dijkstra(self._csr, directed=False, indices=boundary)
        ).astype(np.float32)
        self.dijkstra_runs += len(boundary)
        row_of = np.full(n, -1, dtype=np.int64)
        row_of[boundary] = np.arange(len(boundary))
        local = np.empty(n, dtype=np.int64)
        inner: list[np.ndarray] = []
        exits: list[np.ndarray] = []
        exit_rows: list[np.ndarray] = []
        by_domain = np.argsort(domain, kind="stable")
        cuts = np.flatnonzero(np.diff(domain[by_domain])) + 1
        for members in np.split(by_domain, cuts):
            local[members] = np.arange(len(members))
            sub = self._csr[members][:, members]
            inner.append(
                np.atleast_2d(dijkstra(sub, directed=False)).astype(np.float32)
            )
            local_exits = np.flatnonzero(is_boundary[members])
            exits.append(local_exits)
            exit_rows.append(row_of[members[local_exits]])
        return _Separator(domain, local, block, inner, exits, exit_rows)

    def _validate(self, vertex: int) -> None:
        if not 0 <= vertex < self.topology.num_vertices:
            raise TopologyError(
                f"vertex {vertex} out of range for topology with "
                f"{self.topology.num_vertices} vertices"
            )

    @property
    def cached_sources(self) -> int:
        return len(self._rows)
