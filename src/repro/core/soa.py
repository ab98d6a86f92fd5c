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
        """Snapshot ``alive`` (already filtered and ordered by the caller)."""
        indices = np.asarray([n.index for n in alive], dtype=np.int64)
        capacities = np.asarray([n.capacity for n in alive], dtype=np.float64)
        loads = np.asarray([n.load for n in alive], dtype=np.float64)
        min_vs = np.asarray(
            [n.min_vs_load if n.virtual_servers else np.inf for n in alive],
            dtype=np.float64,
        )
        vs_counts = np.asarray(
            [len(n.virtual_servers) for n in alive], dtype=np.int64
        )
        return cls(
            indices=indices,
            capacities=capacities,
            loads=loads,
            min_vs=min_vs,
            vs_counts=vs_counts,
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
