"""The three virtual-server load-balancing schemes of Rao et al.

Rao, Lakshminarayanan, Surana, Karp, Stoica — "Load Balancing in
Structured P2P Systems" (IPTPS 2003), reference [5] of the paper.  All
three move load heavy -> light in units of virtual servers but differ in
how heavy and light nodes find each other:

* **one-to-one**: each light node periodically probes a random ring
  position; if the node owning it is heavy, one virtual server moves.
* **one-to-many**: heavy nodes contact one of a set of *directories*
  where a random subset of light nodes has registered; the directory
  picks, for each heavy node, the best-fitting light node.
* **many-to-many**: a logically global rendezvous collects *all* heavy
  and light information and computes assignments (the strongest
  scheme — closest to the paper's tree-based VSA, but with no proximity
  information and no distributed structure).

None of them uses proximity information, so their transfer distances
match the proximity-ignorant distribution; they serve as both
correctness anchors (they should balance about as well as the paper's
scheme) and ablation baselines for transfer cost and probe overhead.

The implementations share this module's model of the paper's
classification rules so comparisons are apples-to-apples: a node is
heavy/light against the same target ``T_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classification import classify_all
from repro.core.lbi import direct_system_lbi
from repro.core.records import NodeClass
from repro.core.selection import select_shed_subset
from repro.dht.chord import ChordRing
from repro.dht.node import PhysicalNode
from repro.exceptions import BalancerError
from repro.topology.routing import DistanceOracle
from repro.util.rng import ensure_rng
from repro.util.sortedlist import SortedKeyList


@dataclass
class RaoResult:
    """Outcome of one Rao et al. balancing run."""

    scheme: str
    transfers: int = 0
    moved_load: float = 0.0
    probes: int = 0
    heavy_before: int = 0
    heavy_after: int = 0
    distances: list[float] = field(default_factory=list)
    loads_moved: list[float] = field(default_factory=list)


def _distance(oracle: DistanceOracle | None, a: PhysicalNode, b: PhysicalNode) -> float:
    if oracle is None or a.site is None or b.site is None:
        return float("nan")
    return oracle.distance(a.site, b.site)


def _transfer_best_vs(
    ring: ChordRing,
    heavy: PhysicalNode,
    light: PhysicalNode,
    target_heavy: float,
    target_light: float,
    oracle: DistanceOracle | None,
    result: RaoResult,
) -> bool:
    """Move the best single VS heavy->light without overloading the light.

    Rao et al.'s rule: transfer the heaviest virtual server that fits the
    light node's spare capacity; prefer one whose removal makes the heavy
    node non-heavy.  Returns whether a transfer happened.
    """
    spare = target_light - light.load
    candidates = [vs for vs in heavy.virtual_servers if vs.load <= spare]
    if not candidates:
        return False
    candidates.sort(key=lambda vs: vs.load)
    excess = heavy.load - target_heavy
    # Smallest VS that alone removes the excess, else the largest fitting.
    chosen = next((vs for vs in candidates if vs.load >= excess), candidates[-1])
    if chosen.load <= 0:
        return False
    ring.transfer_virtual_server(chosen, light)
    result.transfers += 1
    result.moved_load += chosen.load
    dist = _distance(oracle, heavy, light)
    if dist == dist:  # not NaN
        result.distances.append(dist)
        result.loads_moved.append(chosen.load)
    return True


def run_one_to_one(
    ring: ChordRing,
    epsilon: float = 0.0,
    probes_per_light: int = 4,
    oracle: DistanceOracle | None = None,
    rng: int | None | np.random.Generator = None,
) -> RaoResult:
    """One-to-one scheme: light nodes probe random ring positions.

    Each light node performs up to ``probes_per_light`` random lookups;
    when a probe lands on a heavy node, one virtual server moves (if one
    fits) and the light node stops probing.
    """
    gen = ensure_rng(rng)
    result = RaoResult(scheme="one-to-one")
    lbi = direct_system_lbi(ring.nodes)
    cls = classify_all(ring.alive_nodes, lbi, epsilon)
    result.heavy_before = len(cls.heavy)
    node_by_index = {n.index: n for n in ring.nodes}
    heavy_set = set(cls.heavy)
    for light_idx in gen.permutation(cls.light).tolist():
        light = node_by_index[light_idx]
        for _ in range(probes_per_light):
            result.probes += 1
            key = int(gen.integers(0, ring.space.size))
            owner = ring.successor(key).owner
            if owner.index in heavy_set:
                moved = _transfer_best_vs(
                    ring,
                    owner,
                    light,
                    cls.targets[owner.index],
                    cls.targets[light_idx],
                    oracle,
                    result,
                )
                if moved:
                    if owner.load <= cls.targets[owner.index]:
                        heavy_set.discard(owner.index)
                    break
    cls_after = classify_all(ring.alive_nodes, lbi, epsilon)
    result.heavy_after = len(cls_after.heavy)
    return result


def run_one_to_many(
    ring: ChordRing,
    epsilon: float = 0.0,
    num_directories: int = 16,
    oracle: DistanceOracle | None = None,
    rng: int | None | np.random.Generator = None,
) -> RaoResult:
    """One-to-many scheme: light nodes register with random directories.

    Each heavy node queries the directory it hashes to and is matched to
    the registered light node that best fits its heaviest shed candidate.
    """
    if num_directories < 1:
        raise BalancerError("need at least one directory")
    gen = ensure_rng(rng)
    result = RaoResult(scheme="one-to-many")
    lbi = direct_system_lbi(ring.nodes)
    cls = classify_all(ring.alive_nodes, lbi, epsilon)
    result.heavy_before = len(cls.heavy)
    node_by_index = {n.index: n for n in ring.nodes}

    directories: list[list[int]] = [[] for _ in range(num_directories)]
    for light_idx in cls.light:
        directories[int(gen.integers(num_directories))].append(light_idx)

    for heavy_idx in gen.permutation(cls.heavy).tolist():
        heavy = node_by_index[heavy_idx]
        directory = directories[int(gen.integers(num_directories))]
        result.probes += 1
        # Retry within the directory until the node is no longer heavy or
        # nothing fits.
        progress = True
        while heavy.load > cls.targets[heavy_idx] and progress:
            progress = False
            best_light = None
            best_spare = np.inf
            needed = min(
                (vs.load for vs in heavy.virtual_servers if vs.load > 0),
                default=0.0,
            )
            for light_idx in directory:
                light = node_by_index[light_idx]
                spare = cls.targets[light_idx] - light.load
                if spare >= needed and spare < best_spare:
                    best_light, best_spare = light, spare
            if best_light is None:
                break
            progress = _transfer_best_vs(
                ring,
                heavy,
                best_light,
                cls.targets[heavy_idx],
                cls.targets[best_light.index],
                oracle,
                result,
            )
    cls_after = classify_all(ring.alive_nodes, lbi, epsilon)
    result.heavy_after = len(cls_after.heavy)
    return result


def run_many_to_many(
    ring: ChordRing,
    epsilon: float = 0.0,
    selection_policy: str = "exact",
    oracle: DistanceOracle | None = None,
    rng: int | None | np.random.Generator = None,
) -> RaoResult:
    """Many-to-many scheme: global pool of shed candidates vs light nodes.

    All heavy nodes dump their shed subsets into one pool; candidates are
    assigned best-fit in decreasing load order — equivalent to the
    paper's VSA executed entirely at the root, with no proximity input.
    """
    result = RaoResult(scheme="many-to-many")
    lbi = direct_system_lbi(ring.nodes)
    cls = classify_all(ring.alive_nodes, lbi, epsilon)
    result.heavy_before = len(cls.heavy)
    node_by_index = {n.index: n for n in ring.nodes}

    pool: list[tuple[float, int, int]] = []  # (load, vs_id, heavy_idx)
    for heavy_idx in cls.heavy:
        heavy = node_by_index[heavy_idx]
        loads = [vs.load for vs in heavy.virtual_servers]
        shed = select_shed_subset(
            loads, heavy.load - cls.targets[heavy_idx], policy=selection_policy,
            keep_at_least=0,
        )
        for i in shed:
            pool.append((loads[i], heavy.virtual_servers[i].vs_id, heavy_idx))
    pool.sort(reverse=True)

    spare_list: SortedKeyList[tuple[float, int]] = SortedKeyList(
        [
            (cls.targets[light_idx] - node_by_index[light_idx].load, light_idx)
            for light_idx in cls.light
            if cls.targets[light_idx] - node_by_index[light_idx].load > 0
        ],
        key=lambda t: t[0],
    )
    for load, vs_id, heavy_idx in pool:
        idx = spare_list.index_first_at_least(load)
        if idx is None:
            continue
        spare, light_idx = spare_list.pop_at(idx)
        light = node_by_index[light_idx]
        ring.transfer_virtual_server(ring.vs(vs_id), light)
        result.transfers += 1
        result.moved_load += load
        dist = _distance(oracle, node_by_index[heavy_idx], light)
        if dist == dist:
            result.distances.append(dist)
            result.loads_moved.append(load)
        remainder = spare - load
        if remainder > 0:
            spare_list.add((remainder, light_idx))

    cls_after = classify_all(ring.alive_nodes, lbi, epsilon)
    result.heavy_after = len(cls_after.heavy)
    return result
