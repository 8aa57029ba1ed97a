"""Stages 1-3 of algorithm OVERLAP: killing processors and labelling
the interval tree (Section 3.1, Lemmas 1-4).

Quantities, for an ``n``-processor host of average link delay
``d_ave`` and a constant ``c > 2``:

* killing delay   ``D_k = (n / 2^k) * d_ave * c * lg n``
* overlap size    ``m_k = n / (c * 2^k * lg n)``   (a *real* number —
  integer box heights are taken later by the scheduler)
* ``k_max = floor(log2(n / (c lg n)))`` — deepest level with
  ``m_k >= 1``.

Stage 1 kills every processor contained in *any* depth-``k`` interval
whose total internal delay exceeds ``D_k`` (too much delay around it).
Stage 2 labels the tree bottom-up (two children: ``x1 + x2 - m_k``) and
kills intervals whose label is below ``2 m_k`` (too few live
processors).  Stage 3 relabels with the smaller penalty ``m_{k+1}``;
the stage-3 labels measure each interval's *computing power* — how many
guest columns it can simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.tree import IntervalNode, IntervalTree
from repro.machine.host import HostArray


@dataclass(frozen=True)
class OverlapParams:
    """The paper's per-depth constants for one host instance."""

    n: int
    c: float
    d_ave: float
    lg: float  # log2(n), floored at 1

    @classmethod
    def for_host(cls, host: HostArray, c: float = 4.0) -> "OverlapParams":
        if c <= 2:
            raise ValueError(f"the constant c must exceed 2 (paper), got {c}")
        n = host.n
        lg = max(1.0, math.log2(n))
        return cls(n=n, c=c, d_ave=max(1.0, host.d_ave), lg=lg)

    def D(self, k: int) -> float:
        """Killing delay for depth ``k``."""
        return (self.n / 2**k) * self.d_ave * self.c * self.lg

    def m(self, k: int) -> float:
        """Overlap size for depth ``k`` (real-valued)."""
        return self.n / (self.c * 2**k * self.lg)

    @property
    def k_max(self) -> int:
        """Deepest level with ``m_k >= 1`` (the paper's
        ``log n - log log n - log c``), at least 0."""
        k = int(math.floor(math.log2(max(1.0, self.n / (self.c * self.lg)))))
        return max(0, k)

    def m_int(self, k: int) -> int:
        """Integer box height at depth ``k`` (min 1) for the scheduler."""
        return max(1, int(math.floor(self.m(k))))


@dataclass
class KillingResult:
    """Output of the three stages.

    Attributes
    ----------
    host, params, tree:
        Inputs and the annotated interval tree.
    live:
        Boolean per host position.
    killed_stage1 / killed_stage2:
        Position sets killed by each stage.
    """

    host: HostArray
    params: OverlapParams
    tree: IntervalTree
    live: np.ndarray
    killed_stage1: set[int] = field(default_factory=set)
    killed_stage2: set[int] = field(default_factory=set)

    @property
    def n_live(self) -> int:
        """Number of surviving processors."""
        return int(self.live.sum())

    @property
    def root_label(self) -> float:
        """Stage-3 label of the root — the usable guest size ``n'``."""
        if self.tree.root.removed or self.tree.root.label3 is None:
            return 0.0
        return self.tree.root.label3

    @property
    def n_prime(self) -> int:
        """Integer guest size the assignment will realise."""
        return int(math.floor(self.root_label))

    def killed_fraction(self) -> float:
        """Fraction of host processors killed by stages 1+2."""
        return 1.0 - self.n_live / self.host.n

    def live_positions(self) -> list[int]:
        """Sorted positions of live processors."""
        return [int(p) for p in np.flatnonzero(self.live)]


def normalize_forced_dead(n: int, forced_dead) -> set[int]:
    """Validate and canonicalise a failed-position collection.

    Accepts any iterable of integer-like positions (numpy ints, lists
    with duplicates, ...) and returns a plain ``set[int]``; rejects
    non-integral values and positions outside ``0..n-1``.  This is the
    single validation point shared by :func:`kill_and_label`,
    :func:`repro.core.overlap.simulate_overlap` and the executor's
    mid-run recovery, so every layer agrees on what "dead" means.
    """
    if forced_dead is None:
        return set()
    out: set[int] = set()
    for p in forced_dead:
        q = int(p)
        if q != p:
            raise ValueError(f"failed position {p!r} is not an integer")
        if not 0 <= q < n:
            raise ValueError(f"failed position {q} outside 0..{n - 1}")
        out.add(q)
    return out


def validate_steps(steps) -> int:
    """Validate a guest-step count and return it as a plain ``int``.

    Shared by the executor and the simulation front-ends so "how many
    steps" is interpreted identically everywhere (integral, >= 0).
    """
    if steps is None:
        raise ValueError("steps must be an integer, got None")
    t = int(steps)
    if t != steps:
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if t < 0:
        raise ValueError("steps must be non-negative")
    return t


def kill_and_label(
    host: HostArray, c: float = 4.0, forced_dead: set[int] | None = None
) -> KillingResult:
    """Run stages 1-3 on ``host`` and return the annotated result.

    ``forced_dead`` marks processors failed *before* the killing stages
    run (they still relay messages — their links exist — but hold no
    databases).  OVERLAP's labelling then routes computation around
    them exactly as it routes around latency-killed processors, which
    is the fault-reconfiguration connection of the paper's related
    work ([5], [9]).  With failures the Lemma 1/2 bounds weaken by the
    failed mass, so callers doing lemma checks should pass none.
    """
    params = OverlapParams.for_host(host, c)
    tree = IntervalTree(host.n)
    live = np.ones(host.n, dtype=bool)
    for p in normalize_forced_dead(host.n, forced_dead):
        live[p] = False
    result = KillingResult(host, params, tree, live)

    _stage1(result)
    _prune_empty(result)
    _stage2_label(result)
    _stage2_kill(result)
    _prune_empty(result)
    _stage3_relabel(result)
    return result


def _stage1(res: KillingResult) -> None:
    """Kill processors inside any interval whose delay exceeds D_k."""
    for k in range(res.tree.height + 1):
        Dk = res.params.D(k)
        for node in res.tree.nodes_at_depth(k):
            if node.size >= 2 and res.host.interval_delay(node.lo, node.hi) > Dk:
                _kill_interval(res.live, node, res.killed_stage1)


def _prune_empty(res: KillingResult) -> None:
    """Remove nodes whose intervals contain no live processor.

    Children first: a leaf is removed iff its processor is dead, an
    inner node iff both children are (their flags already cover every
    position of the interval).
    """
    live = res.live.tolist()
    for node in res.tree.children_first:
        if node.children:
            left, right = node.children
            node.removed = left.removed and right.removed
        else:
            node.removed = not live[node.lo]


def _label_bottom_up(res: KillingResult, attr: str, penalty: list[float]) -> None:
    """Children-first labels in ``attr``: removed nodes ``None``, leaves
    1, a node with two live children ``x1 + x2 - penalty[depth]``, a
    node with one live child that child's label."""
    for node in res.tree.children_first:
        if node.removed:
            label = None
        elif not node.children:
            label = 1.0
        else:
            left, right = node.children
            if left.removed:
                label = getattr(right, attr)
            elif right.removed:
                label = getattr(left, attr)
            else:
                label = (
                    getattr(left, attr) + getattr(right, attr) - penalty[node.depth]
                )
        setattr(node, attr, label)


def _overlap_sizes(res: KillingResult) -> list[float]:
    """``m_k`` for depths ``0..height+1``, each computed once."""
    return [res.params.m(k) for k in range(res.tree.height + 2)]


def _stage2_label(res: KillingResult) -> None:
    """Bottom-up labels: leaf 1; two children ``x1 + x2 - m_k``."""
    _label_bottom_up(res, "label2", _overlap_sizes(res))


def _stage2_kill(res: KillingResult) -> None:
    """Kill intervals whose stage-2 label is below ``2 m_k``.

    Processed top-down with the *original* stage-2 labels, exactly as
    the paper does (labels are not recomputed between kills).
    """
    mk = _overlap_sizes(res)
    stack = [res.tree.root]
    while stack:
        node = stack.pop()
        if node.removed:
            continue
        if node.label2 is not None and node.label2 < 2 * mk[node.depth]:
            # Its subtree is not visited again; the next prune removes it.
            _kill_interval(res.live, node, res.killed_stage2)
            continue
        stack.extend(node.children)


def _stage3_relabel(res: KillingResult) -> None:
    """Relabel remaining nodes with the ``m_{k+1}`` penalty."""
    _label_bottom_up(res, "label3", _overlap_sizes(res)[1:])


def _kill_interval(live: np.ndarray, node: IntervalNode, killed: set[int]) -> None:
    """Kill every live processor of ``node``'s interval into ``killed``."""
    seg = live[node.lo : node.hi + 1]
    killed.update((np.flatnonzero(seg) + node.lo).tolist())
    seg[:] = False


# ---------------------------------------------------------------------------
# Lemma checks (used by tests and the E10 bench)
# ---------------------------------------------------------------------------


def lemma1_bound(res: KillingResult) -> tuple[int, float]:
    """(stage-1 kills, paper bound n/c)."""
    return len(res.killed_stage1), res.params.n / res.params.c


def lemma2_bound(res: KillingResult) -> tuple[float, float]:
    """(stage-2 root label, paper bound (1 - 2/c) n).

    The paper's bound assumes every depth contributes ``2^k m_k``
    penalty mass; with real-valued ``m_k`` this is exact.
    """
    label = res.tree.root.label2 if not res.tree.root.removed else 0.0
    bound = (1 - 2 / res.params.c) * res.params.n
    return (label if label is not None else 0.0), bound


def lemma4_checks(res: KillingResult) -> list[tuple[int, float, float]]:
    """For every remaining node: (depth, stage-3 label, ``2 m_k``).

    Lemma 4 asserts label >= 2 m_k for every remaining depth-k node
    (k < log n); the root must additionally reach ``(1 - 2/c) n``.
    """
    out = []
    for node in res.tree.all_nodes():
        if node.removed or node.label3 is None:
            continue
        out.append((node.depth, node.label3, 2 * res.params.m(node.depth)))
    return out
