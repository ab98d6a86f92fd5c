#!/usr/bin/env python
"""A guided tour through every phase of the paper, with internals exposed.

Where the other examples call ``LoadBalancer.run_round()``, this one
performs the four phases by hand on a small system and prints what each
phase produces — the LBI records entering the tree, the aggregated
``<L, C, L_min>``, the classification table, the published VSA entries
and their keys, the rendezvous pairings per tree level, and the final
transfers.  Useful as executable documentation of Sections 3 and 4.

Run:  python examples/paper_walkthrough.py
"""

import collections

from repro import BalancerConfig, GaussianLoadModel, KnaryTree, build_scenario
from repro.core import NodeClass, ShedCandidate, SpareCapacity
from repro.core.classification import classify_all
from repro.core.lbi import aggregate_lbi, collect_lbi_reports
from repro.core.placement import RandomVSPlacement
from repro.core.reference import VSASweep
from repro.core.selection import select_shed_subset
from repro.core.vst import execute_transfers

EPSILON = 0.05


def main():
    scenario = build_scenario(
        GaussianLoadModel(mu=10_000, sigma=50.0), num_nodes=16, vs_per_node=3, rng=4
    )
    ring = scenario.ring
    print("== the system ==")
    for node in ring.nodes:
        vs_loads = ", ".join(f"{vs.load:.0f}" for vs in node.virtual_servers)
        print(f"  node {node.index:2d}  capacity {node.capacity:>6g}  "
              f"load {node.load:8.1f}  virtual servers [{vs_loads}]")

    # ------------------------------------------------------------------
    print("\n== phase 1: LBI aggregation over the K-nary tree ==")
    tree = KnaryTree(ring, k=2)
    reports = collect_lbi_reports(ring, tree, rng=1)
    print(f"  {sum(len(r) for r in reports.values())} LBI reports entered "
          f"{len(reports)} distinct KT leaves")
    system, trace = aggregate_lbi(tree, reports)
    print(f"  aggregated <L, C, L_min> = <{system.total_load:.1f}, "
          f"{system.total_capacity:g}, {system.min_vs_load:.2f}>")
    print(f"  tree height {trace.tree_height}; {trace.upward_messages} upward "
          f"messages over {trace.upward_rounds} rounds; dissemination mirrors it")

    # ------------------------------------------------------------------
    print("\n== phase 2: classification (T_i = (1+eps)(L/C)C_i) ==")
    cls = classify_all(ring.alive_nodes, system, EPSILON)
    for kind in (NodeClass.HEAVY, NodeClass.LIGHT, NodeClass.NEUTRAL):
        members = [i for i, c in cls.classes.items() if c is kind]
        print(f"  {kind.value:>7}: {members}")

    # ------------------------------------------------------------------
    print("\n== phase 3: virtual server assignment ==")
    placement = RandomVSPlacement(ring, rng=2)
    published = []
    for node in ring.alive_nodes:
        kind = cls.classes[node.index]
        if kind is NodeClass.HEAVY:
            loads = [vs.load for vs in node.virtual_servers]
            excess = node.load - cls.targets[node.index]
            shed = select_shed_subset(loads, excess)
            key = placement.key_for(node)
            for i in shed:
                published.append((key, ShedCandidate(
                    load=loads[i],
                    vs_id=node.virtual_servers[i].vs_id,
                    node_index=node.index,
                )))
            print(f"  heavy node {node.index:2d} sheds {len(shed)} of "
                  f"{len(loads)} virtual servers (excess {excess:.1f}) "
                  f"publishing at key {key}")
        elif kind is NodeClass.LIGHT:
            delta = cls.targets[node.index] - node.load
            if delta > 0:
                published.append(
                    (placement.key_for(node),
                     SpareCapacity(delta=delta, node_index=node.index))
                )
                print(f"  light node {node.index:2d} advertises spare "
                      f"{delta:.1f}")

    sweep = VSASweep(tree, threshold=4, min_vs_load=system.min_vs_load)
    result = sweep.run(published)
    print(f"\n  bottom-up sweep over {result.rounds} levels:")
    for level in sorted(result.pairings_by_level, reverse=True):
        count = result.pairings_by_level[level]
        if count:
            print(f"    level {level:2d}: {count} pairings")
    print(f"  {len(result.assignments)} assignments, "
          f"{len(result.unassigned_heavy)} candidates left unassigned")

    # ------------------------------------------------------------------
    print("\n== phase 4: virtual server transfers ==")
    transfers = execute_transfers(ring, result.assignments)
    moves = collections.Counter(
        (t.source_node, t.target_node) for t in transfers
    )
    for (src, dst), n in sorted(moves.items()):
        total = sum(t.load for t in transfers
                    if (t.source_node, t.target_node) == (src, dst))
        print(f"  node {src:2d} -> node {dst:2d}: {n} virtual servers, "
              f"load {total:.1f}")

    cls_after = classify_all(ring.alive_nodes, system, EPSILON)
    heavy_after = [i for i, c in cls_after.classes.items() if c is NodeClass.HEAVY]
    print(f"\nheavy nodes after balancing: {heavy_after or 'none'}")
    ring.check_invariants()
    print("ring invariants verified")


if __name__ == "__main__":
    main()
