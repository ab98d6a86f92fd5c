"""The distributed K-nary tree built on top of the DHT (paper Section 3.1).

Every KT node owns a contiguous portion of the identifier space — the
root owns all of it — and is *planted* in the virtual server that owns
the center point of its region.  A KT node whose region is completely
covered by its hosting virtual server's region is a leaf; otherwise its
region splits into K equal parts, one per child.  The tree therefore
tracks the DHT's ring structure and can always be reconstructed from it,
which is what makes it self-repairing under churn.

A KT node is an integer slot into the struct-of-arrays columns of the
tree's :class:`TreeIndex` (region, linkage, child table, host); every
construction and repair walk runs one tree level at a time over them.
"""

from repro.ktree.tree import KnaryTree
from repro.ktree.index import TreeIndex

__all__ = ["KnaryTree", "TreeIndex"]
