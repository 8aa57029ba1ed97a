"""The binary interval tree ``T`` over the host array (Section 3.1).

The root represents the whole array; each node's children represent the
left and right halves of its interval; leaves are single processors.  A
depth-``k`` node corresponds to a *depth-k interval* of roughly
``n / 2^k`` processors.  The tree carries the mutable annotations the
killing/labelling stages attach (liveness, stage-2 and stage-3 labels,
database ranges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class IntervalNode:
    """One node of the interval tree.

    ``lo``/``hi`` are inclusive host positions.  ``removed`` means the
    node was deleted from ``T`` (empty interval or stage-2 kill); labels
    are ``None`` until the corresponding stage has run.
    """

    depth: int
    lo: int
    hi: int
    children: list["IntervalNode"] = field(default_factory=list)
    parent: Optional["IntervalNode"] = field(default=None, repr=False)
    removed: bool = False
    label2: float | None = None
    label3: float | None = None
    db_start: float | None = None  # real-interval database assignment
    db_width: float | None = None

    @property
    def size(self) -> int:
        """Number of host positions in the interval."""
        return self.hi - self.lo + 1

    @property
    def is_leaf(self) -> bool:
        """True for single-processor intervals."""
        return not self.children

    def live_children(self) -> list["IntervalNode"]:
        """Children still present in ``T``."""
        return [ch for ch in self.children if not ch.removed]

    def __iter__(self) -> Iterator["IntervalNode"]:
        """Pre-order traversal of the subtree (including removed nodes)."""
        yield self
        for ch in self.children:
            yield from ch


class IntervalTree:
    """Complete binary interval tree over host positions ``0..n-1``.

    Intervals are split at the midpoint, so for non-power-of-two ``n``
    sibling sizes differ by at most one; the paper's ``n / 2^k``
    quantities are used as real numbers throughout the labelling, which
    keeps every lemma's arithmetic intact.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("interval tree needs at least one position")
        self.n = n
        self._preorder: list[IntervalNode] = []
        self.root = self._build(0, n - 1, 0)
        self._by_depth: list[list[IntervalNode]] = []
        for node in self._preorder:
            while len(self._by_depth) <= node.depth:
                self._by_depth.append([])
            self._by_depth[node.depth].append(node)
        self.height = len(self._by_depth) - 1
        #: Every node after all of its descendants (reversed pre-order),
        #: for the bottom-up killing and labelling passes.
        self.children_first: list[IntervalNode] = self._preorder[::-1]

    def _build(self, lo: int, hi: int, depth: int) -> IntervalNode:
        node = IntervalNode(depth, lo, hi)
        self._preorder.append(node)
        if lo < hi:
            mid = (lo + hi) // 2
            left = self._build(lo, mid, depth + 1)
            right = self._build(mid + 1, hi, depth + 1)
            left.parent = right.parent = node
            node.children = [left, right]
        return node

    def nodes_at_depth(self, k: int) -> list[IntervalNode]:
        """All nodes at depth ``k`` (empty list beyond the height)."""
        if k >= len(self._by_depth):
            return []
        return list(self._by_depth[k])

    def all_nodes(self) -> Iterator[IntervalNode]:
        """Pre-order traversal of the whole tree."""
        return iter(self._preorder)

    def leaves(self) -> list[IntervalNode]:
        """Leaves in left-to-right (position) order."""
        return [node for node in self._preorder if node.is_leaf]

    def leaf_at(self, pos: int) -> IntervalNode:
        """The leaf for host position ``pos`` (O(height) descent)."""
        if not 0 <= pos < self.n:
            raise IndexError(f"position {pos} out of range 0..{self.n - 1}")
        node = self.root
        while not node.is_leaf:
            left, right = node.children
            node = left if pos <= left.hi else right
        return node

    def path_to_root(self, pos: int) -> list[IntervalNode]:
        """Nodes whose intervals contain ``pos``, leaf first."""
        out = []
        node: IntervalNode | None = self.leaf_at(pos)
        while node is not None:
            out.append(node)
            node = node.parent
        return out
