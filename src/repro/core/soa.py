"""Struct-of-arrays snapshots of per-node balancing state.

The serial balancer walks ``PhysicalNode`` objects and asks each one for
its load, capacity and lightest virtual server.  At 10^5-10^6 nodes the
attribute churn dominates the round, so the incremental engine snapshots
the same quantities once per round into contiguous NumPy arrays and runs
classification and the LBI fold over them.

Bit-exactness contract: every array is built from the *same* Python
expressions the serial path evaluates (``node.load`` sums
``vs.load`` left-to-right, ``node.min_vs_load`` is a ``min`` over the
same floats), so downstream float comparisons and folds see identical
IEEE-754 values in identical order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.node import PhysicalNode


@dataclass(frozen=True)
class NodeStateArrays:
    """One round's per-node state, column-major.

    Attributes
    ----------
    indices:
        ``node.index`` for each alive node, in alive order.
    capacities / loads:
        ``node.capacity`` / ``node.load`` as float64, alive order.
    min_vs:
        ``node.min_vs_load`` (``inf`` for a node with no virtual
        servers, matching the serial LBI report).
    vs_counts:
        ``len(node.virtual_servers)`` — drives the batched reporter and
        placement draws.
    """

    indices: np.ndarray
    capacities: np.ndarray
    loads: np.ndarray
    min_vs: np.ndarray
    vs_counts: np.ndarray

    @classmethod
    def snapshot(cls, alive: list[PhysicalNode]) -> "NodeStateArrays":
        """Snapshot ``alive`` (already filtered and ordered by the caller).

        One pass over the nodes: a node's server loads are read once and
        give both ``node.load`` (the same left-to-right ``sum``) and
        ``node.min_vs_load`` (the same ``min``).
        """
        inf = float("inf")
        index_col: list[int] = []
        capacity_col: list[float] = []
        load_col: list[float] = []
        min_col: list[float] = []
        count_col: list[int] = []
        for n in alive:
            vs_loads = [vs.load for vs in n.virtual_servers]
            index_col.append(n.index)
            capacity_col.append(n.capacity)
            load_col.append(sum(vs_loads))
            min_col.append(min(vs_loads) if vs_loads else inf)
            count_col.append(len(vs_loads))
        return cls(
            indices=np.asarray(index_col, dtype=np.int64),
            capacities=np.asarray(capacity_col, dtype=np.float64),
            loads=np.asarray(load_col, dtype=np.float64),
            min_vs=np.asarray(min_col, dtype=np.float64),
            vs_counts=np.asarray(count_col, dtype=np.int64),
        )

    def subset(self, rows: np.ndarray) -> "NodeStateArrays":
        """The snapshot restricted to the boolean row mask ``rows``."""
        return NodeStateArrays(
            indices=self.indices[rows],
            capacities=self.capacities[rows],
            loads=self.loads[rows],
            min_vs=self.min_vs[rows],
            vs_counts=self.vs_counts[rows],
        )

    def __len__(self) -> int:
        return int(self.indices.size)
