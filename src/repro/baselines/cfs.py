"""CFS-style load shedding and its thrashing failure mode.

CFS (Dabek et al., SOSP 2001) hosts virtual servers in proportion to
node capacity; an overloaded node sheds load by simply *removing* some
of its virtual servers.  The removed regions are absorbed by their ring
successors — which may push *those* nodes over their targets.  The paper
cites this cascading behaviour ("load thrashing") as the motivation for
assignment-based transfer instead of removal.

:func:`run_cfs_shedding` reproduces the mechanism so the thrashing can
be measured: it iterates shed rounds and records how many *new* heavy
nodes each round of removals creates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classification import classify_all
from repro.core.lbi import direct_system_lbi
from repro.core.selection import select_shed_subset
from repro.dht.chord import ChordRing
from repro.util.rng import ensure_rng


@dataclass
class CFSResult:
    """Outcome of an iterated CFS shedding run."""

    rounds: int = 0
    removals: int = 0
    shed_load: float = 0.0
    heavy_before: int = 0
    heavy_after: int = 0
    newly_heavy_per_round: list[int] = field(default_factory=list)

    @property
    def total_thrash(self) -> int:
        """Nodes pushed heavy by other nodes' shedding across all rounds."""
        return sum(self.newly_heavy_per_round)


def run_cfs_shedding(
    ring: ChordRing,
    epsilon: float = 0.0,
    max_rounds: int = 10,
    rng: int | None | np.random.Generator = None,
) -> CFSResult:
    """Iterate CFS-style shedding until stable or ``max_rounds``.

    Each round, every currently-heavy node removes its cheapest subset of
    virtual servers covering its excess; each removed virtual server's
    load lands on its ring successor.  Nodes that were non-heavy and
    become heavy because of absorbed load are counted as thrash.

    The ring keeps at least one virtual server overall; a node shedding
    its last virtual server is allowed (it simply leaves the ring's
    ownership map), matching CFS semantics.
    """
    ensure_rng(rng)  # reserved for future stochastic variants; validates input
    result = CFSResult()
    lbi = direct_system_lbi(ring.nodes)
    cls = classify_all(ring.alive_nodes, lbi, epsilon)
    result.heavy_before = len(cls.heavy)
    node_by_index = {n.index: n for n in ring.nodes}
    heavy_now = set(cls.heavy)
    ever_heavy = set(cls.heavy)

    for _ in range(max_rounds):
        if not heavy_now:
            break
        result.rounds += 1
        affected: set[int] = set()
        for idx in sorted(heavy_now):
            node = node_by_index[idx]
            target = cls.targets[idx]
            loads = [vs.load for vs in node.virtual_servers]
            shed = select_shed_subset(loads, node.load - target, keep_at_least=0)
            if not shed:
                continue
            # Removal order matters: removing one VS changes successors of
            # the rest; capture objects first.
            to_remove = [node.virtual_servers[i] for i in shed]
            for vs in to_remove:
                if ring.num_virtual_servers <= 1:
                    break
                load = vs.load
                ring.remove_virtual_server(vs)
                absorber = ring.successor(vs.vs_id)
                absorber.load += load
                affected.add(absorber.owner.index)
                result.removals += 1
                result.shed_load += load
        # Reclassify: which non-heavy nodes were pushed over target?
        heavy_now = set(classify_all(ring.alive_nodes, lbi, epsilon).heavy)
        new_heavy = heavy_now - ever_heavy
        result.newly_heavy_per_round.append(len(new_heavy))
        ever_heavy |= new_heavy

    cls_final = classify_all(ring.alive_nodes, lbi, epsilon)
    result.heavy_after = len(cls_final.heavy)
    return result
