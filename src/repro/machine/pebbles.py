"""Pebble coordinates and the dependency rule (Figure 1 of the paper).

Pebble ``(i, t)`` is the computation of guest processor ``g_i`` at step
``t >= 1``.  It depends on pebbles ``(i-1, t-1)``, ``(i, t-1)`` and
``(i+1, t-1)`` and on database ``b_i`` at version ``t-1``.  Row 0
pebbles are the initial inputs, known to every host processor that owns
a copy of the corresponding column.  Columns ``0`` and ``m+1`` are
virtual boundary columns whose pebbles are known to the host at time 0
(the paper's convention that every pebble has three parents).
"""

from __future__ import annotations

import numpy as np

from repro.machine.mixing import mix2_v, tag_s

BOUNDARY_LEFT = 0xB0
BOUNDARY_RIGHT = 0xB1


def parents(i: int, t: int) -> list[tuple[int, int]]:
    """The three parents of pebble ``(i, t)`` in dependency order."""
    if t < 1:
        raise ValueError(f"pebble ({i},{t}) has no parents: t must be >= 1")
    return [(i - 1, t - 1), (i, t - 1), (i + 1, t - 1)]


def cone(i: int, t: int, m: int) -> set[tuple[int, int]]:
    """The dependency cone of ``(i, t)``: every pebble it transitively
    depends on, clipped to columns ``1..m`` (row 0 included).

    Used by the Figure-1 bench to regenerate the dependency structure
    the paper's schematic shows.
    """
    out: set[tuple[int, int]] = set()
    lo, hi = i, i
    for tt in range(t - 1, -1, -1):
        lo, hi = lo - 1, hi + 1
        for j in range(max(1, lo), min(m, hi) + 1):
            out.add((j, tt))
    return out


def cone_size(i: int, t: int, m: int) -> int:
    """Size of :func:`cone` computed in closed form (O(t), no set)."""
    total = 0
    lo, hi = i, i
    for _tt in range(t - 1, -1, -1):
        lo, hi = lo - 1, hi + 1
        total += max(0, min(m, hi) - max(1, lo) + 1)
    return total


def initial_value(i: int) -> int:
    """Row-0 pebble value for column ``i`` (initial input)."""
    return tag_s(0x1417, i)


def initial_values(m: int) -> np.ndarray:
    """Row-0 pebble values of columns ``1..m`` as a ``uint64`` array
    (``initial_values(m)[i - 1] == initial_value(i)``)."""
    return mix2_v(np.uint64(tag_s(0x1417)), np.arange(1, m + 1, dtype=np.uint64))


def boundary_value(side: int, t: int) -> int:
    """Pebble value of virtual columns 0 / m+1 at step ``t``.

    These are known to the host at time 0 (paper, Section 3.2), so they
    carry no scheduling constraint; they only feed the edge columns'
    computations.
    """
    _check_side(side)
    return tag_s(side, t)


def boundary_values(side: int, steps: int) -> np.ndarray:
    """Virtual-column pebble values for ``t = 0..steps`` as a ``uint64``
    array (``boundary_values(side, T)[t] == boundary_value(side, t)``)."""
    _check_side(side)
    return mix2_v(np.uint64(tag_s(side)), np.arange(steps + 1, dtype=np.uint64))


def _check_side(side: int) -> None:
    if side not in (BOUNDARY_LEFT, BOUNDARY_RIGHT):
        raise ValueError(f"side must be BOUNDARY_LEFT or BOUNDARY_RIGHT, got {side}")
