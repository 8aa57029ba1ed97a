"""1-D guest machines and their reference (ground-truth) executors.

The reference executor runs the guest *directly* — one unit-delay step
per row, no hosts, no latency — and records every pebble value plus the
final database digests.  It defines correctness: any host simulation of
the guest must reproduce exactly these values and digests
(:mod:`repro.core.verify` does the comparison).

The executor is row-vectorised with numpy whenever the program supports
it (the whole grid for ``m * T ~ 10^6`` takes milliseconds), with a
scalar fallback for programs with structured state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.database import Database
from repro.machine.mixing import mix2_v, tag_s
from repro.machine.pebbles import (
    BOUNDARY_LEFT,
    BOUNDARY_RIGHT,
    boundary_values,
    initial_values,
)
from repro.machine.programs import Program

_DB_SEED = tag_s(0xDB)  # matches Database.__post_init__: tag_s(0xDB, i)


@dataclass
class ReferenceRun:
    """Ground truth for ``T`` steps of an ``m``-column guest array.

    Attributes
    ----------
    values:
        ``(T+1, m+2)`` uint64 grid; ``values[t, i]`` is pebble ``(i,t)``
        for columns ``1..m``; columns 0 and ``m+1`` hold the boundary
        pebbles; row 0 holds the initial inputs.
    update_digests:
        Per column, the order-sensitive digest of the update sequence —
        what every consistent replica must match.
    state_digests:
        Per column, digest of the final database state.
    """

    m: int
    steps: int
    values: np.ndarray
    update_digests: np.ndarray
    state_digests: np.ndarray

    def pebble(self, i: int, t: int) -> int:
        """Value of pebble ``(i, t)`` (columns 0..m+1, rows 0..T)."""
        return int(self.values[t, i])

    def total_pebbles(self) -> int:
        """Number of real (non-boundary, t>=1) pebbles in the run."""
        return self.m * self.steps


class GuestArray:
    """An ``m``-processor guest linear array with unit-delay links."""

    def __init__(self, m: int, program: Program) -> None:
        if m < 1:
            raise ValueError(f"guest must have at least 1 processor, got {m}")
        self.m = m
        self.program = program

    def boundary_grid(self, steps: int) -> np.ndarray:
        """(T+1, m+2) grid with row 0 and boundary columns pre-filled."""
        grid = np.zeros((steps + 1, self.m + 2), dtype=np.uint64)
        grid[0, 1 : self.m + 1] = initial_values(self.m)
        grid[:, 0] = boundary_values(BOUNDARY_LEFT, steps)
        grid[:, self.m + 1] = boundary_values(BOUNDARY_RIGHT, steps)
        return grid

    def run_reference(self, steps: int) -> ReferenceRun:
        """Execute ``steps`` guest steps directly; return ground truth."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if self.program.supports_vector:
            return self._run_vectorised(steps)
        return self._run_scalar(steps)

    def _run_vectorised(self, steps: int) -> ReferenceRun:
        m, prog = self.m, self.program
        grid = self.boundary_grid(steps)
        states = prog.init_state_vec(m)
        digests = mix2_v(np.uint64(_DB_SEED), np.arange(1, m + 1, dtype=np.uint64))
        for t in range(1, steps + 1):
            prev = grid[t - 1]
            left, up, right = prev[0:m], prev[1 : m + 1], prev[2 : m + 2]
            values, updates = prog.compute_row_vec(t, states, left, up, right)
            grid[t, 1 : m + 1] = values
            states = prog.apply_vec(states, updates)
            digests = mix2_v(digests, updates)
        state_digests = np.asarray(states, dtype=np.uint64)
        return ReferenceRun(m, steps, grid, digests, state_digests)

    def _run_scalar(self, steps: int) -> ReferenceRun:
        m, prog = self.m, self.program
        grid = self.boundary_grid(steps)
        dbs = [Database(i, prog.init_state(i)) for i in range(1, m + 1)]
        for t in range(1, steps + 1):
            row_prev = grid[t - 1]
            pending = []
            for i in range(1, m + 1):
                left = int(row_prev[i - 1])
                up = int(row_prev[i])
                right = int(row_prev[i + 1])
                value, update = prog.compute(i, t, dbs[i - 1].state, left, up, right)
                grid[t, i] = value
                pending.append(update)
            # Apply after the whole row: all of row t reads version t-1
            # state, matching the synchronous guest semantics.
            for i, update in enumerate(pending):
                dbs[i].apply(prog, update)
        update_digests = np.array([db.digest for db in dbs], dtype=np.uint64)
        state_digests = np.array(
            [prog.state_digest(db.state) for db in dbs], dtype=np.uint64
        )
        return ReferenceRun(m, steps, grid, update_digests, state_digests)


@dataclass
class RingReferenceRun:
    """Ground truth for a ring guest (values grid + per-node digests).

    ``values[t, k]`` is the pebble of ring slot ``k`` (0-indexed) at
    step ``t``; digests are indexed by slot as well.
    """

    m: int
    steps: int
    values: np.ndarray
    update_digests: np.ndarray
    state_digests: np.ndarray

    def pebble(self, k: int, t: int) -> int:
        """Value of ring slot ``k`` at step ``t``."""
        return int(self.values[t, k])


class GuestRing:
    """An ``m``-processor guest ring (wrap-around dependencies).

    The paper treats rings via the classic fold: a ring embeds in a
    linear array with dilation 2, so an array simulation also simulates
    the ring with one extra factor of 2 ([8], noted in the paper's
    Section 1).  :meth:`fold_embedding` produces that embedding; the
    ring also has its own direct reference executor for tests.
    """

    def __init__(self, m: int, program: Program) -> None:
        if m < 3:
            raise ValueError(f"a ring needs at least 3 processors, got {m}")
        self.m = m
        self.program = program

    def run_reference(self, steps: int) -> np.ndarray:
        """Direct ring execution: returns the ``(T+1, m)`` value grid."""
        return self.run_reference_full(steps).values

    def run_reference_full(self, steps: int) -> "RingReferenceRun":
        """Direct ring execution with database digests (ground truth
        for the distributed ring simulation of
        :mod:`repro.core.ring`).  Ring slot ``k`` (0-indexed) carries
        guest label ``k + 1`` — same labelling as a guest array."""
        m, prog = self.m, self.program
        if not prog.supports_vector:
            raise NotImplementedError("ring reference needs a vector program")
        grid = np.zeros((steps + 1, m), dtype=np.uint64)
        grid[0] = initial_values(m)
        states = prog.init_state_vec(m)
        digests = mix2_v(np.uint64(_DB_SEED), np.arange(1, m + 1, dtype=np.uint64))
        for t in range(1, steps + 1):
            prev = grid[t - 1]
            left = np.roll(prev, 1)
            right = np.roll(prev, -1)
            values, updates = prog.compute_row_vec(t, states, left, prev, right)
            grid[t] = values
            states = prog.apply_vec(states, updates)
            digests = mix2_v(digests, updates)
        return RingReferenceRun(m, steps, grid, digests, np.asarray(states))

    @staticmethod
    def fold_embedding(m: int) -> list[int]:
        """Dilation-2 one-to-one embedding of an ``m``-ring in an
        ``m``-array.

        Returns ``pos`` with ``pos[k]`` = array position of ring node
        ``k``; ring neighbours land at array distance <= 2, so the array
        simulates the ring with slowdown 2.

        The fold interleaves the two halves of the ring: array order is
        ``0, m-1, 1, m-2, 2, ...`` so node ``j`` sits at ``2j`` and node
        ``m-1-j`` at ``2j+1``.
        """
        pos = [0] * m
        for j in range((m + 1) // 2):
            pos[j] = 2 * j
        for j in range(m // 2):
            pos[m - 1 - j] = 2 * j + 1
        return pos

    @staticmethod
    def fold_dilation(m: int) -> int:
        """Maximum array distance between embedded ring neighbours."""
        pos = GuestRing.fold_embedding(m)
        return max(
            abs(pos[k] - pos[(k + 1) % m]) for k in range(m)
        )
