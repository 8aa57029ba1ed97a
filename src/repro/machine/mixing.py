"""Deterministic 64-bit mixing primitives.

Pebble values and database digests are 64-bit integers produced by
splitmix64-style avalanche mixing.  Determinism is what lets the
verification layer check that (a) every redundant replica of a database
converges to the same digest and (b) the distributed simulation agrees
bit-for-bit with the direct reference execution of the guest.

Each primitive comes in two matched forms:

* ``*_s`` — scalar, on Python ints (used by the event-driven executors,
  where pebbles are computed one at a time);
* ``*_v`` — vectorised, on ``numpy.uint64`` arrays (used by the
  reference executors, which compute a whole guest row per step — the
  optimisation guides' "vectorise the hot loop" rule).

``tests/test_mixing.py`` property-tests that the two forms agree on
random inputs, so the executors can be mixed freely.
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1

# splitmix64 constants
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_GAMMA_U = np.uint64(_GAMMA)
_M1_U = np.uint64(_M1)
_M2_U = np.uint64(_M2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_THREE = np.uint64(3)


def splitmix_s(x: int) -> int:
    """Scalar splitmix64 finaliser: avalanche one 64-bit word."""
    x = (x + _GAMMA) & MASK
    x = ((x ^ (x >> 30)) * _M1) & MASK
    x = ((x ^ (x >> 27)) * _M2) & MASK
    return x ^ (x >> 31)


def splitmix_v(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser on ``uint64`` arrays.

    Wrap-around on multiply/add is the intended mod-2^64 arithmetic;
    ``errstate`` silences numpy's overflow warning for 0-d scalars
    (arrays never warn, but scalar fast paths do).
    """
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _avalanche(x + _GAMMA_U)


def _avalanche(x: np.ndarray) -> np.ndarray:
    """The splitmix64 rounds after the ``+ gamma`` step, computed in
    place (no temporaries beyond the shifts).  ``x`` must be an array
    the caller just created, and the caller holds the ``errstate``."""
    x ^= x >> _S30
    x *= _M1_U
    x ^= x >> _S27
    x *= _M2_U
    x ^= x >> _S31
    return x


def mix2_s(a: int, b: int) -> int:
    """Scalar order-sensitive combine of two words."""
    return splitmix_s((a * 3 + b) & MASK)


def mix2_v(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised order-sensitive combine of two words."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = a * _THREE + b
        x += _GAMMA_U
        return _avalanche(x)


def mix4_s(a: int, b: int, c: int, d: int) -> int:
    """Scalar combine of four words (db state + three parents)."""
    return mix2_s(mix2_s(a, b), mix2_s(c, d))


def mix4_v(a, b, c, d) -> np.ndarray:
    """Vectorised combine of four words."""
    return mix2_v(mix2_v(a, b), mix2_v(c, d))


FOLD_SEED = 0x243F6A8885A308D3  # pi fractional bits: arbitrary non-zero seed


def fold_s(values) -> int:
    """Order-sensitive left fold of an iterable of words (digesting)."""
    acc = FOLD_SEED
    for v in values:
        acc = mix2_s(acc, v)
    return acc


def fold_columns_v(grid) -> np.ndarray:
    """:func:`fold_s` of every column of a 2-D ``uint64`` grid, top row
    first: one :func:`mix2_v` per row instead of one scalar fold per
    column.  Returns a ``uint64`` array with one digest per column."""
    grid = np.asarray(grid, dtype=np.uint64)
    acc = np.full(grid.shape[1], np.uint64(FOLD_SEED), dtype=np.uint64)
    for row in grid:
        acc = mix2_v(acc, row)
    return acc


def tag_s(*parts: int) -> int:
    """Hash a tuple of small ints into a word (ids, seeds, boundaries).

    Accepts numpy integer scalars too (coerced to Python ints so the
    masking stays in arbitrary precision).
    """
    return fold_s(int(p) & MASK for p in parts)
