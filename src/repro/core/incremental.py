"""Incremental round engine: dirty-subtree repair + vectorized hot paths.

:class:`IncrementalLoadBalancer` produces **byte-identical**
:meth:`~repro.core.report.BalanceReport.canonical_digest` output to the
serial :class:`~repro.core.balancer.LoadBalancer` while replacing its
per-round O(N) object churn with work proportional to what actually
changed:

* The K-nary tree persists across rounds.  A :class:`RingEventLog`
  records ring membership events; at round start
  :meth:`KnaryTree.refresh_dirty` repairs only the subtrees overlapping
  the dirty identifier spans those events imply, and the
  :class:`TreeIndex` slot arrays absorb the structural delta.
* Every key — reporter keys and VSA publication keys alike — resolves
  one way: :meth:`TreeIndex.resolve_leaves` looks it up in the sorted
  directory of materialised leaves (patched from the same delta), and
  the misses descend the tree **together** via
  :meth:`KnaryTree.descend_batch`, one level at a time over the whole
  miss set, instead of N independent Python walks.
* Quarantine and partition views are cuts of the one tree, not fresh
  trees.  A view holds a subset of the ring's virtual servers, so its
  arcs are unions of consecutive ring arcs and every region the ring
  covers the view covers too: the view's KT is an upper subtree of the
  ring's.  A view key's leaf is the shallowest node on its ring path
  the view covers (:meth:`TreeIndex.view_leaves`); misses descend only
  that far.
* The LBI fold runs as a NumPy array program over the admitted report
  rows; the VSA sweep visits only the pairing frontier, in the order
  of the serial deepest-first walk.

Bit-exactness rests on three identities, each exercised by the digest
property tests: ``0.0 + x == x`` and ``min(inf, x) == x`` make the
zero/inf-initialised scatter-fold reproduce the serial left-fold; an
``np.add.at``/``np.minimum.at`` call applies its updates sequentially in
index order, so ordering the per-level merge by ``(parent, child_rank)``
reproduces the serial ascending-child merge; and batched
``Generator.integers(0, counts)`` draws are stream-identical to the
serial per-node scalar draws.

The engine runs :class:`~repro.core.balancer.LoadBalancer`'s round body
and overrides only the two kernels that need the persistent tree: the
LBI fold and the VSA sweep.  Both kernels take their per-message
decisions — reporter draws, drops, retries, duplicates, accusations,
lies, corruption, witness audits, the sanity gate, publication
delivery — through the same loops
(:func:`~repro.core.lbi.admit_lbi_reports` and
:func:`~repro.core.vsa.deliver_publications`), so faulted, attacked,
quarantined and partitioned rounds run fast, digest-exact.  Only
enabled tracing (the serial kernels emit the per-node trace events)
and an empty ring select the serial kernels.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.adversary.stats import AdversaryRoundStats
from repro.core.balancer import LoadBalancer, RoundPart
from repro.core.lbi import AggregationTrace, admit_lbi_reports
from repro.core.records import SystemLBI
from repro.core.report import BalanceReport
from repro.core.soa import NodeStateArrays
from repro.core.vsa import (
    SlotPairing,
    VSAEntries,
    VSAResult,
    deliver_publications,
)
from repro.dht.events import RingEventLog
from repro.faults.stats import FaultRoundStats
from repro.ktree.index import TreeIndex
from repro.ktree.tree import KnaryTree
from repro.obs.profile import PhaseClock


class IncrementalLoadBalancer(LoadBalancer):
    """Drop-in :class:`LoadBalancer` with incremental, vectorized rounds.

    Accepts the same constructor arguments; selection between the fast
    and the serial kernels happens per round (see the module
    docstring).  The config is untouched — engine choice is not part of
    the digested experiment identity.

    ``descent_stats["miss_descents"]`` counts the keys the leaf
    directory could not answer, which descended the tree; only the fast
    kernels move it.
    """

    #: Above this many logged ring events per round (relative floor 64,
    #: else 1/8 of the virtual-server population) the span machinery
    #: costs more than a from-scratch rebuild; the engine rebuilds.
    REBUILD_EVENT_FLOOR = 64

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._events = RingEventLog(self.ring)
        self._tree: KnaryTree | None = None
        self._index: TreeIndex | None = None
        self.descent_stats: dict[str, int] = {"miss_descents": 0}
        self._needs_reset = True
        #: Fast kernels this round?  And the LBI report paths' (node
        #: count, height), which the sweep extends.
        self._fast = False
        self._lbi_paths = (0, 0)

    # ------------------------------------------------------------------
    # Round dispatch
    # ------------------------------------------------------------------
    def run_round(self) -> BalanceReport:
        """One round through the shared body, on the fast kernels if exact.

        Every round runs the fast kernels over the persistent tree —
        faulted, attacked, quarantine re-tiled and partitioned parts
        included — except when tracing is enabled (the serial kernels
        emit the per-node trace events) or the ring is empty.  Such a
        round invalidates the persistent tree, so the next fast round
        rebuilds it from the current ring.
        """
        self._fast = not (
            self.tracer.enabled
            or self.ring.num_virtual_servers == 0
            or not self.ring.alive_nodes
        )
        if not self._fast:
            self._needs_reset = True
            self._events.drain(resolve=False)
        return super().run_round()

    # ------------------------------------------------------------------
    # World synchronisation
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        self._tree = KnaryTree(
            self.ring, self.config.tree_degree, metrics=self.metrics
        )
        self._index = TreeIndex(self._tree)
        self._needs_reset = False

    def _sync_world(self) -> None:
        """Bring the persistent tree and its index up to the current ring."""
        log = self._events
        if self._needs_reset or self._tree is None or self._index is None:
            log.drain(resolve=False)
            self._rebuild()
            return
        limit = max(
            self.REBUILD_EVENT_FLOOR, self.ring.num_virtual_servers // 8
        )
        if log.pending_events > limit:
            log.drain(resolve=False)
            self._rebuild()
            return
        delta = log.drain()
        if delta.full_reset:
            self._rebuild()
            return
        if delta.empty:
            return
        assert delta.dirty is not None
        refresh = self._tree.refresh_dirty(delta.dirty)
        index = self._index
        for node in refresh.pruned_nodes:
            index.drop(node)
        for node in refresh.became_leaf:
            index.set_leaf(node, True)
        for node in refresh.became_internal:
            index.set_leaf(node, False)

    # ------------------------------------------------------------------
    # Key-to-leaf resolution: directory lookup + one batched descent
    # ------------------------------------------------------------------
    def _part_slots(
        self, part: RoundPart, keys: np.ndarray, clock: PhaseClock
    ) -> np.ndarray:
        """Leaf slots of the part's KT for ``keys``, in the persistent tree.

        Keys resolve to whole-ring leaves through the sorted leaf
        directory (:meth:`TreeIndex.resolve_leaves`); the misses descend
        together in one :meth:`KnaryTree.descend_batch` — for a view
        part, only down to the view's leaves.  A view part's leaves are
        then cut out of the whole-ring paths
        (:meth:`TreeIndex.view_leaves`) — the view's KT is an upper
        subtree of the ring's, so no fresh tree is built.
        """
        index = self._index
        tree = self._tree
        assert index is not None and tree is not None
        view = None if part.ring is self.ring else part.ring
        slots = index.resolve_leaves(keys)
        miss = np.flatnonzero(slots < 0)
        if miss.size:
            with clock.phase("miss_descent"):
                leaves, ordinals = tree.descend_batch(keys[miss], view)
                leaf_slots = np.fromiter(
                    (index.slot(leaf) for leaf in leaves),
                    dtype=np.int64,
                    count=len(leaves),
                )
                slots[miss] = leaf_slots[ordinals]
            self.descent_stats["miss_descents"] += int(miss.size)
            if self.metrics is not None:
                self.metrics.counter("incremental.miss_descents").inc(
                    int(miss.size)
                )
        if view is not None:
            slots = index.view_leaves(slots, view)
        return slots

    # ------------------------------------------------------------------
    # Phase 1: vectorized LBI aggregation
    # ------------------------------------------------------------------
    def _fold_lbi(
        self,
        part: RoundPart,
        arrays: NodeStateArrays,
        stats: FaultRoundStats,
        adv_stats: AdversaryRoundStats,
        clock: PhaseClock,
    ) -> tuple[SystemLBI, AggregationTrace] | None:
        """Tree sync, the shared report decisions, then the scatter +
        level fold over the admitted rows.  Descent time inside lbi and
        vsa also accumulates in the ``miss_descent`` sub-phase.

        The tree is synced at every part's fold: a crash inside an
        earlier part's VST batch removes virtual servers before the next
        part folds.  The part's reports are decided by
        :func:`~repro.core.lbi.admit_lbi_reports` — the serial kernel's
        own loop — over the part's snapshot rows; the admitted keys then
        resolve to the part's leaf slots (:meth:`_part_slots`).

        The union of report root-to-leaf paths — the node set a fresh
        serial tree would have materialised — is kept in ``_lbi_paths``
        as ``(node count, height)`` for the sweep to extend.
        """
        if not self._fast:
            return super()._fold_lbi(part, arrays, stats, adv_stats, clock)
        self._sync_world()
        index = self._index
        assert index is not None
        whole = part.ring is self.ring
        rows = admit_lbi_reports(
            part.ring,
            part.nodes,
            arrays if whole else arrays.subset(part.rows),
            self._lbi_rng,
            faults=self.faults,
            retry=self.retry,
            fault_stats=stats,
            sanity=self._sanity,
            epoch=stats.epoch,
            adversary=self.adversary,
            adversary_stats=adv_stats,
        )
        index.new_stamp()
        if not len(rows):
            # Nothing admitted: a fresh tree would hold just its root,
            # which the sweep's path count then extends.
            _, count, _ = index.stamp_paths(np.zeros(1, dtype=np.int64))
            self._lbi_paths = (count, 0)
            return None
        leaf_slots = self._part_slots(part, rows.keys, clock)
        fresh, count, height = index.stamp_paths(leaf_slots)
        # Accumulator cells are reset at exactly the slots this fold
        # stamps; no other cell is read.
        acc_load = np.empty(len(index), dtype=np.float64)
        acc_cap = np.empty(len(index), dtype=np.float64)
        acc_min = np.empty(len(index), dtype=np.float64)
        acc_load[fresh] = 0.0
        acc_cap[fresh] = 0.0
        acc_min[fresh] = np.inf
        # Record scatter in admission order == the serial per-leaf append
        # order (ufunc .at applies updates sequentially in index order).
        np.add.at(acc_load, leaf_slots, rows.loads)
        np.add.at(acc_cap, leaf_slots, rows.capacities)
        np.minimum.at(acc_min, leaf_slots, rows.min_vs)

        # Child-to-parent merges, one level at a time from the deepest:
        # a child's accumulator is final before its level is gathered,
        # and (parent, rank) ordering inside a level reproduces the
        # serial ascending-child left-fold after the record fold.
        levels = index.level[fresh]
        parents = index.parent[fresh]
        ranks = index.child_rank[fresh]
        order = np.lexsort((ranks, parents, -levels))
        s_slots = fresh[order]
        s_levels = levels[order]
        s_parents = parents[order]
        cuts = np.nonzero(np.diff(s_levels))[0] + 1
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [s_levels.size]])
        for a, b in zip(starts.tolist(), ends.tolist()):
            if s_levels[a] == 0:
                continue
            children = s_slots[a:b]
            merge_parents = s_parents[a:b]
            np.add.at(acc_load, merge_parents, acc_load[children])
            np.add.at(acc_cap, merge_parents, acc_cap[children])
            np.minimum.at(acc_min, merge_parents, acc_min[children])

        system = SystemLBI(
            total_load=float(acc_load[0]),
            total_capacity=float(acc_cap[0]),
            min_vs_load=float(acc_min[0]),
        )
        trace = AggregationTrace(
            tree_height=height,
            upward_rounds=height,
            downward_rounds=height,
            upward_messages=count - 1,
            downward_messages=count - 1,
            reports=len(rows),
        )
        self._lbi_paths = (count, height)
        return system, trace

    # ------------------------------------------------------------------
    # Phase 3b: sparse bottom-up sweep
    # ------------------------------------------------------------------
    def _sweep_vsa(
        self,
        part: RoundPart,
        published: VSAEntries,
        min_vs_load: float,
        stats: FaultRoundStats,
        clock: PhaseClock,
    ) -> tuple[VSAResult, int, int]:
        """Deliver publications and sweep only the pairing frontier.

        Delivery is :func:`~repro.core.vsa.deliver_publications`, the
        serial kernel's own loop; the delivered entries' keys then land
        on the part's leaf slots (:meth:`_part_slots`, cut to the view for a
        quarantine or partition part).

        Pairing fires only where a bucket reaches the rendezvous
        threshold, and a bucket never holds more entries than were
        delivered into the slot's subtree — a count that is monotone up
        the tree.  The slots whose subtree count reaches the threshold
        therefore form an upward-closed *frontier* subtree (plus the
        root), and everything below it is pure ordered concatenation:
        no pairing, one relayed upward message per visited slot.  Below
        the frontier the serial merge order is a DFS — own deliveries
        first, then children by descending region start — which for
        leaf-delivered entries equals a stable sort by ``(-region end,
        level, publication index)``, because tree regions never wrap
        and children tile their parent in rank order.  So the
        sub-frontier cascade collapses to one ``np.lexsort`` and the
        Python loop runs only over frontier slots, in the serial
        snapshot's ``(-level, -start)`` pop order, pairing entry ids
        through the serial sweep's :class:`~repro.core.vsa.SlotPairing`.
        The tree shape a
        serial round would report is the LBI report paths plus the
        delivery paths *newly* stamped here (same stamp generation).
        """
        if not self._fast:
            return super()._sweep_vsa(part, published, min_vs_load, stats, clock)
        index = self._index
        assert index is not None
        lbi_count, lbi_height = self._lbi_paths
        result = VSAResult(entries_published=len(published), rounds=lbi_height)
        delivered = deliver_publications(
            published,
            result,
            self._retry_rng,
            faults=self.faults,
            retry=self.retry,
            fault_stats=stats,
        )
        if not delivered.size:
            return result, lbi_height, lbi_count
        slots_e = self._part_slots(part, published.keys[delivered], clock)
        _, count, height = index.stamp_paths(slots_e)

        threshold = self.config.rendezvous_threshold
        level_arr = index.level
        parent_arr = index.parent
        start_arr = index.start
        length_arr = index.length

        # Per-slot subtree delivery counts: chase every delivery path to
        # the root, merging duplicate parents per step so each slot is
        # touched once per distinct depth it is reached from.
        counts = np.zeros(parent_arr.shape[0], dtype=np.int64)
        cur, weight = np.unique(slots_e, return_counts=True)
        while cur.size:
            counts[cur] += weight
            parents = parent_arr[cur]
            keep = parents >= 0
            parents, weight = parents[keep], weight[keep]
            if parents.size:
                cur, inverse = np.unique(parents, return_inverse=True)
                weight = np.bincount(
                    inverse, weights=weight, minlength=cur.size
                ).astype(np.int64)
            else:
                cur = parents
        in_frontier = counts >= threshold
        in_frontier[0] = True  # the root pairs unconditionally

        # Every sub-frontier slot on a delivery path holds a non-empty
        # bucket when popped (nothing below it can pair) and relays it
        # in exactly one upward message.
        result.upward_messages += int(
            np.count_nonzero((counts > 0) & ~in_frontier)
        )

        # Per entry: the deepest frontier ancestor (its pairing anchor)
        # and the topmost sub-frontier slot under it (the child position
        # its clean-merged group occupies in the anchor's bucket).
        anchor = slots_e.copy()
        attach = np.full(anchor.shape, -1, dtype=np.int64)
        active = np.flatnonzero(~in_frontier[anchor])
        while active.size:
            attach[active] = anchor[active]
            anchor[active] = parent_arr[anchor[active]]
            active = active[~in_frontier[anchor[active]]]

        # Assemble the clean groups in serial merge order.  The level
        # key only breaks end-ties between nested slots; deliveries all
        # land on (disjoint) leaves, so it is inert armour in case
        # interior delivery ever appears.
        is_heavy = published.heavy[delivered]
        end_e = start_arr[slots_e] + length_arr[slots_e]
        grouped = np.flatnonzero(attach >= 0)
        order = grouped[
            np.lexsort((grouped, level_arr[slots_e[grouped]], -end_e[grouped]))
        ]
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for slot, entry, shed in zip(
            attach[order].tolist(),
            delivered[order].tolist(),
            is_heavy[order].tolist(),
        ):
            buck = groups.get(slot)
            if buck is None:
                buck = groups[slot] = ([], [])
            buck[0 if shed else 1].append(entry)
        direct: dict[int, tuple[list[int], list[int]]] = {}
        own = np.flatnonzero(attach < 0)
        for slot, entry, shed in zip(
            anchor[own].tolist(), delivered[own].tolist(), is_heavy[own].tolist()
        ):
            buck = direct.get(slot)
            if buck is None:
                buck = direct[slot] = ([], [])
            buck[0 if shed else 1].append(entry)

        # Contributions pending at each frontier slot, keyed by the
        # feeding child's region start; children of one parent share a
        # level, so the serial pop order extends them into the parent
        # bucket in descending start order.
        feeders: dict[int, list[tuple[int, list[int], list[int]]]] = {}
        for child, buck in groups.items():
            feeders.setdefault(int(parent_arr[child]), []).append(
                (int(start_arr[child]), buck[0], buck[1])
            )

        pairing = SlotPairing(
            published, result, min_vs_load, self.config.strict_heaviest_first
        )
        frontier = np.flatnonzero(in_frontier & (counts > 0))
        pop_order = frontier[
            np.lexsort((-start_arr[frontier], -level_arr[frontier]))
        ]
        for slot in pop_order.tolist():
            base = direct.get(slot)
            heavy = list(base[0]) if base else []
            light = list(base[1]) if base else []
            feed = feeders.pop(slot, None)
            if feed is not None:
                feed.sort(key=lambda item: -item[0])
                for _, add_heavy, add_light in feed:
                    heavy.extend(add_heavy)
                    light.extend(add_light)
            if not heavy and not light:
                continue
            is_root = slot == 0
            if is_root or (len(heavy) + len(light)) >= threshold:
                heavy, light = pairing.pair(
                    heavy, light, int(level_arr[slot]), is_root
                )
            if not is_root and (heavy or light):
                feeders.setdefault(int(parent_arr[slot]), []).append(
                    (int(start_arr[slot]), heavy, light)
                )
                result.upward_messages += 1
        result.rounds = max(lbi_height, height)
        return result, result.rounds, lbi_count + count
