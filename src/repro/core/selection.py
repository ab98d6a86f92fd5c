"""Shed-subset selection on heavy nodes (Section 3.4, first step).

A heavy node ``i`` must choose a subset of its virtual servers whose
removal makes it non-heavy, minimising the total load moved:

    minimise  sum(L_{i,k})   subject to   L_i - sum(L_{i,k}) <= T_i

i.e. choose the cheapest subset whose total is at least the node's
*excess* ``L_i - T_i``.  Two policies are provided:

* ``"exact"`` — optimal subset via meet-in-the-middle enumeration
  (exponential in half the VS count; nodes host only a handful of
  virtual servers, so this is cheap up to ~26 VSs, above which it
  falls back to greedy);
* ``"greedy"`` — best-fit-decreasing heuristic: repeatedly take the
  smallest single VS that covers the remaining excess, else the largest
  VS and recurse.

Both respect a ``keep_at_least`` floor (default 1): a node never sheds
its last virtual server, since that would eject it from the ring — a
constraint the paper leaves implicit.

A round selects for all its heavy nodes in one
:func:`select_shed_subsets` call: nodes are grouped by VS count and the
exact policy scans each group as one array program with a leading node
axis (:func:`_exact_rows`).  The per-node scan :func:`_exact_enum` is
the written specification that batch is property-tested against; both
pick the same indices, ties included, which the balancing digests rely
on.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.exceptions import BalancerError

#: Above this VS count the exact policy falls back to greedy.
EXACT_POLICY_LIMIT = 26


def select_shed_subset(
    loads: list[float],
    excess: float,
    policy: str = "exact",
    keep_at_least: int = 1,
) -> list[int]:
    """Indices (into ``loads``) of the virtual servers to shed.

    Returns the empty list when ``excess <= 0``.  When even shedding the
    maximum allowed set cannot cover the excess, the best-effort maximal
    shed (all but the ``keep_at_least`` smallest loads) is returned.
    A batch of one through :func:`select_shed_subsets`.
    """
    return select_shed_subsets([loads], [excess], policy, keep_at_least)[0]


def select_shed_subsets(
    loads: Sequence[Sequence[float]],
    excesses: Sequence[float],
    policy: str = "exact",
    keep_at_least: int = 1,
) -> list[list[int]]:
    """:func:`select_shed_subset` for many nodes at once.

    ``loads[i]`` are node ``i``'s virtual-server loads and
    ``excesses[i]`` its excess; entry ``i`` of the result is exactly the
    pick the per-node rules make.  Nodes are grouped by VS count, and
    each exact group runs one vectorised meet-in-the-middle scan with a
    leading node axis (:func:`_exact_rows`); the greedy policy, counts
    above :data:`EXACT_POLICY_LIMIT` and nodes whose size budget admits
    no covering subset take :func:`_greedy` node by node.
    """
    if policy not in ("exact", "greedy"):
        raise BalancerError(f"unknown selection policy {policy!r}")
    if keep_at_least < 0:
        raise BalancerError(f"keep_at_least must be >= 0, got {keep_at_least}")
    if any(min(row) < 0 for row in loads if len(row)):
        raise BalancerError("virtual server loads must be non-negative")
    picks: list[list[int]] = [[] for _ in loads]
    by_count: dict[int, list[int]] = {}
    for i, (row, excess) in enumerate(zip(loads, excesses)):
        # excess <= 0, no servers, or a floor that keeps them all: [].
        if excess > 0 and len(row) > keep_at_least:
            by_count.setdefault(len(row), []).append(i)
    for n, members in by_count.items():
        max_shed = n - keep_at_least
        matrix = np.array([loads[i] for i in members], dtype=np.float64)
        excess_col = np.array([excesses[i] for i in members], dtype=np.float64)
        # Feasibility: the max_shed largest loads, summed ascending as a
        # left fold — ``add.accumulate`` is sequential, so this is
        # Python's ``sum`` over the sorted tail (up to the sign of a
        # zero total, which no comparison sees).
        tail = np.sort(matrix, axis=1)[:, n - max_shed :]
        sheddable = np.add.accumulate(tail, axis=1)[:, -1]
        infeasible = sheddable < excess_col
        for r in np.flatnonzero(infeasible).tolist():
            # Shed the largest max_shed loads (maximal best effort).
            order = np.argsort(matrix[r], kind="stable")
            picks[members[r]] = sorted(order[n - max_shed :].tolist())
        rows = np.flatnonzero(~infeasible)
        exact: list[list[int] | None] = [None] * rows.size
        if policy == "exact" and n <= EXACT_POLICY_LIMIT and rows.size:
            exact = _exact_rows(matrix[rows], excess_col[rows], max_shed)
        for r, pick in zip(rows.tolist(), exact):
            i = members[r]
            picks[i] = (
                pick
                if pick is not None
                else _greedy(list(loads[i]), excesses[i], max_shed)
            )
    return picks


def _greedy(loads: list[float], excess: float, max_shed: int) -> list[int]:
    """Best-fit-decreasing: cover the remaining excess as tightly as possible."""
    remaining = excess
    available = sorted(range(len(loads)), key=lambda i: loads[i])
    # Sorted loads of ``available``; only the tail is ever popped, so the
    # two lists stay in step without a rebuild per step.
    keys = [loads[i] for i in available]
    chosen: list[int] = []
    while remaining > 0 and available and len(chosen) < max_shed:
        # Smallest VS that alone covers the remaining excess.
        pos = bisect_left(keys, remaining)
        if pos < len(available):
            chosen.append(available[pos])
            return sorted(chosen)
        # None covers it: take the largest and continue.
        idx = available.pop()
        keys.pop()
        chosen.append(idx)
        remaining -= loads[idx]
    return sorted(chosen)


@lru_cache(maxsize=64)
def _side_table(side_len: int) -> tuple[tuple[int, int], ...]:
    """``(size, bitmask)`` per subset, in meet-in-the-middle enumeration order.

    Mirrors ``enumerate_side``: the empty set first, then sizes
    ascending with ``itertools.combinations`` lexicographic order
    within each size.  Depends only on the side width, so one table
    serves every call.
    """
    entries: list[tuple[int, int]] = [(0, 0)]
    for r in range(1, side_len + 1):
        for combo in combinations(range(side_len), r):
            mask = 0
            for i in combo:
                mask |= 1 << i
            entries.append((r, mask))
    return tuple(entries)


@lru_cache(maxsize=64)
def _side_arrays(side_len: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_side_table` as parallel ``(sizes, masks)`` int64 arrays."""
    table = _side_table(side_len)
    sizes = np.fromiter((s for s, _ in table), dtype=np.int64, count=len(table))
    masks = np.fromiter((m for _, m in table), dtype=np.int64, count=len(table))
    return sizes, masks


def _subset_sums_rows(vals: np.ndarray) -> np.ndarray:
    """Sum per bitmask-subset of every row of ``vals``.

    ``sums[:, mask]`` strips the highest bit, so every total accumulates
    lowest index first — the same left fold (and therefore the same
    float rounding) as ``sum(vals[i] for i in combo)`` over an ascending
    combo.  The level-``b`` slice assignment adds ``vals[:, b]`` to every
    sum whose mask gains bit ``b`` as its new highest bit, and NumPy's
    elementwise float64 add rounds identically to Python's ``+``.
    """
    rows, width = vals.shape
    sums = np.zeros((rows, 1 << width), dtype=np.float64)
    for b in range(width):
        sums[:, 1 << b : 2 << b] = sums[:, : 1 << b] + vals[:, b : b + 1]
    return sums


@lru_cache(maxsize=64)
def _right_groups(side_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-side subset layout: ``(sizes, group starts, group lengths)``.

    Enumeration order lists subsets by size ascending, so the size
    groups are contiguous runs of the :func:`_side_arrays` columns.
    """
    sizes, _ = _side_arrays(side_len)
    lengths = np.bincount(sizes, minlength=side_len + 1)
    return sizes, np.cumsum(lengths) - lengths, lengths


#: Cells one :func:`_exact_rows` chunk may hold (nodes x left subsets x
#: right subsets when comparing all pairs, x right-size groups
#: otherwise); bounds its working memory.
_ROW_CELL_BUDGET = 1 << 18

#: Up to this many (left, right) subset pairs per node,
#: :func:`_exact_rows` compares every pair instead of binary searching.
_PAIR_COMPARE_LIMIT = 1 << 16


def _exact_rows(
    matrix: np.ndarray, excess: np.ndarray, max_shed: int
) -> list[list[int] | None]:
    """:func:`_exact_enum`'s pick for every row of ``matrix`` (one node
    per row).

    Each node's scan is a candidate matrix: rows are left subsets in
    enumeration order, columns are right-size groups ascending, and a
    cell holds the group's smallest right sum satisfying
    ``rsum >= excess - lsum``.  Row-major over that matrix is exactly
    the scan order of :func:`_exact_enum`, where only a strictly better
    ``(total, size)`` replaces the incumbent, so the winner is the
    row-major first cell of minimal ``(total, size)``.  The matrix also
    fills the group cells of ``need <= 0`` rows (the serial scan skips
    them), which is safe: each such cell is dominated by the same row's
    empty-right cell (``total >= lsum`` with a strictly larger size on
    equality), so it can never become the row-major argmin.

    All rows share one VS count, so the subset tables, the size matrix
    and the size-budget mask are common; sums, need and the per-group
    stable sorts gain a leading node axis.  A cell's insertion point
    counts its group's sums below ``need`` — every pair compared at once
    for small VS counts, a per-node ``searchsorted`` otherwise.  ``None``
    marks a node with no such cell (the caller's greedy fallback).
    """
    m, n = matrix.shape
    half = n // 2
    lsizes, lmasks = _side_arrays(half)
    _, rmasks_all = _side_arrays(n - half)
    rsizes_all, starts, lengths = _right_groups(n - half)
    num_rows = lmasks.shape[0]
    num_right = rmasks_all.shape[0]
    num_groups = n - half + 1
    compare_all = num_rows * num_right <= _PAIR_COMPARE_LIMIT
    per_node = num_rows * (num_right if compare_all else num_groups)
    chunk = max(1, _ROW_CELL_BUDGET // per_node)
    if m > chunk:
        out: list[list[int] | None] = []
        for lo in range(0, m, chunk):
            out += _exact_rows(
                matrix[lo : lo + chunk], excess[lo : lo + chunk], max_shed
            )
        return out
    lsums = _subset_sums_rows(matrix[:, :half])[:, lmasks]
    rsums_all = _subset_sums_rows(matrix[:, half:])[:, rmasks_all]
    # Per node, each size group's sums stably sorted (ties keep
    # enumeration order), groups still contiguous; ``order`` maps a
    # sorted column back to its subset mask.
    order = np.lexsort((rsums_all, np.broadcast_to(rsizes_all, rsums_all.shape)))
    node_axis = np.arange(m)[:, None]
    rsums = rsums_all[node_axis, order]
    need = excess[:, None] - lsums
    if compare_all:
        pos = np.add.reduceat(
            rsums[:, None, :] < need[:, :, None], starts, axis=2, dtype=np.int64
        )
    else:
        pos = np.empty((m, num_rows, num_groups), dtype=np.int64)
        for r in range(m):
            for g, (lo, size) in enumerate(zip(starts.tolist(), lengths.tolist())):
                pos[r, :, g] = np.searchsorted(
                    rsums[r, lo : lo + size], need[r], side="left"
                )
    sizes = lsizes[:, None] + np.arange(num_groups)[None, :]
    # sizes <= max_shed also enforces lsize <= max_shed.
    valid = (sizes <= max_shed) & (pos < lengths)
    at = starts + np.minimum(pos, lengths - 1)
    totals = lsums[:, :, None] + rsums[node_axis[:, :, None], at]
    valid = valid.reshape(m, -1)
    totals = totals.reshape(m, -1)
    flat_sizes = sizes.reshape(-1)
    best_total = np.where(valid, totals, np.inf).min(axis=1)
    cand = valid & (totals == best_total[:, None])
    best_size = np.where(cand, flat_sizes, n + 1).min(axis=1)
    cand &= flat_sizes == best_size[:, None]
    winner = cand.argmax(axis=1)
    row, g = np.divmod(winner, num_groups)
    lmask = lmasks[row].tolist()
    rmask = rmasks_all[order[np.arange(m), at[np.arange(m), row, g]]].tolist()
    found = valid.any(axis=1).tolist()
    return [
        _mask_bits(lm, rm, half, n) if ok else None
        for lm, rm, ok in zip(lmask, rmask, found)
    ]


def _mask_bits(lmask: int, rmask: int, half: int, n: int) -> list[int]:
    """Ascending indices of a (left, right) subset pair over ``n`` loads."""
    chosen = [i for i in range(half) if lmask >> i & 1]
    chosen.extend(half + i for i in range(n - half) if rmask >> i & 1)
    return chosen


def _exact_enum(loads: list[float], excess: float, max_shed: int) -> list[int]:
    """Per-node exact scan by direct tuple enumeration — the specification.

    Minimises (total shed, subset size) lexicographically among subsets
    with total >= excess and size <= max_shed.  Candidates are examined
    in a fixed enumeration order and only a strictly better
    ``(total, size)`` replaces the incumbent, so equal-sum ties resolve
    identically no matter which implementation path runs.
    """
    n = len(loads)
    half = n // 2
    left = list(range(half))
    right = list(range(half, n))

    def enumerate_side(indices: list[int]) -> list[tuple[float, int, tuple[int, ...]]]:
        out = [(0.0, 0, ())]
        for r in range(1, len(indices) + 1):
            for combo in combinations(indices, r):
                out.append((sum(loads[i] for i in combo), r, combo))
        return out

    left_sets = enumerate_side(left)
    right_sets = enumerate_side(right)

    # Group right-side subsets by size; within each size group sort by sum
    # so "smallest sum >= need" is a binary search.
    by_size: dict[int, list[tuple[float, tuple[int, ...]]]] = {}
    for rsum, rsize, rcombo in right_sets:
        by_size.setdefault(rsize, []).append((rsum, rcombo))
    for group in by_size.values():
        group.sort(key=lambda t: t[0])
    sums_by_size = {s: [t[0] for t in g] for s, g in by_size.items()}

    best_total: tuple[float, int] | None = None
    best_combo: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for lsum, lsize, lcombo in left_sets:
        if lsize > max_shed:
            continue
        need = excess - lsum
        if need <= 0:
            cand_total = (lsum, lsize)
            if best_total is None or cand_total < best_total:
                best_total = cand_total
                best_combo = (lcombo, ())
            continue
        for rsize, sums in sums_by_size.items():
            if lsize + rsize > max_shed:
                continue
            pos = bisect_left(sums, need)
            if pos == len(sums):
                continue
            rsum, rcombo = by_size[rsize][pos]
            cand_total = (lsum + rsum, lsize + rsize)
            if best_total is None or cand_total < best_total:
                best_total = cand_total
                best_combo = (lcombo, rcombo)
    if best_combo is None:
        # No feasible subset within the size budget covers the excess;
        # fall back to greedy best effort.
        return _greedy(loads, excess, max_shed)
    return sorted(best_combo[0] + best_combo[1])
