"""Reference view cut: the path walk the arc climb is held to.

:meth:`~repro.ktree.tree.KnaryTree.view_leaves` cuts a tree's slots to
the leaves of a view's KT by climbing parent pointers while the parent
still fits the view arc that holds the slot.  The function here computes
the same cut the direct way: mark every slot on the input slots' root
paths, probe :func:`~repro.ktree.tree.leaf_rule` over the view for all
of them, then propagate the shallowest view leaf top-down one level at a
time.  The property tests assert the two agree slot for slot.
"""

from __future__ import annotations

import numpy as np

from repro.dht.chord import ChordRing
from repro.exceptions import TreeError
from repro.ktree.tree import KnaryTree, leaf_rule


def path_walk_view_leaves(
    tree: KnaryTree, slots: np.ndarray, view: ChordRing
) -> np.ndarray:
    """The view leaf on each slot's root path, by a full path walk."""
    index = tree.index
    size = len(index)
    parent = index.parent
    on_path = np.zeros(size, dtype=bool)
    current = np.unique(np.asarray(slots, dtype=np.int64))
    while current.size:
        on_path[current] = True
        parents = parent[current]
        parents = np.unique(parents[parents >= 0])
        current = parents[~on_path[parents]]
    path = np.flatnonzero(on_path)
    is_view_leaf = np.zeros(size, dtype=bool)
    is_view_leaf[path] = leaf_rule(
        view, index.start[path], index.length[path], tree.k
    )[1]
    cut = np.full(size, -1, dtype=np.int64)
    levels = index.level[path]
    order = np.argsort(levels, kind="stable")
    by_level = path[order]
    bounds = np.flatnonzero(np.diff(levels[order])) + 1
    for group in np.split(by_level, bounds):
        above = parent[group]
        inherited = np.where(above >= 0, cut[np.maximum(above, 0)], -1)
        cut[group] = np.where(
            inherited >= 0,
            inherited,
            np.where(is_view_leaf[group], group, -1),
        )
    out = cut[np.asarray(slots, dtype=np.int64)]
    if out.size and int(out.min()) < 0:
        raise TreeError("view is not a sub-ring of the indexed ring")
    return out
