"""Scalar/vector agreement and basic quality of the mixing primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine import mixing

WORD = st.integers(min_value=0, max_value=mixing.MASK)


@given(WORD)
def test_splitmix_scalar_vector_agree(x):
    assert mixing.splitmix_s(x) == int(mixing.splitmix_v(np.uint64(x)))


@given(WORD, WORD)
def test_mix2_scalar_vector_agree(a, b):
    assert mixing.mix2_s(a, b) == int(mixing.mix2_v(np.uint64(a), np.uint64(b)))


@given(WORD, WORD, WORD, WORD)
def test_mix4_scalar_vector_agree(a, b, c, d):
    expected = mixing.mix4_s(a, b, c, d)
    got = mixing.mix4_v(np.uint64(a), np.uint64(b), np.uint64(c), np.uint64(d))
    assert expected == int(got)


@given(st.lists(WORD, min_size=0, max_size=20))
def test_fold_matches_incremental_mix2(values):
    acc = mixing.fold_s([])
    for v in values:
        acc = mixing.mix2_s(acc, v)
    assert mixing.fold_s(values) == acc


@given(WORD)
def test_splitmix_in_range(x):
    y = mixing.splitmix_s(x)
    assert 0 <= y <= mixing.MASK


@given(st.lists(WORD, min_size=2, max_size=6))
def test_fold_is_order_sensitive(values):
    # Folding a reversed non-palindromic sequence gives another digest.
    if values == values[::-1]:
        return
    assert mixing.fold_s(values) != mixing.fold_s(values[::-1])


def test_mix2_vector_broadcasts():
    a = np.arange(10, dtype=np.uint64)
    out = mixing.mix2_v(a, np.uint64(7))
    assert out.shape == (10,)
    assert len(set(out.tolist())) == 10  # injective-looking on small input


def test_mix2_not_commutative():
    assert mixing.mix2_s(1, 2) != mixing.mix2_s(2, 1)


def test_tag_accepts_numpy_ints():
    assert mixing.tag_s(np.int64(3), np.uint64(4)) == mixing.tag_s(3, 4)


def test_avalanche_flips_many_bits():
    # Flipping one input bit should flip roughly half the output bits.
    base = mixing.splitmix_s(12345)
    flipped = mixing.splitmix_s(12345 ^ 1)
    diff = bin(base ^ flipped).count("1")
    assert 16 <= diff <= 48


@pytest.mark.parametrize("n", [1, 5, 64])
def test_splitmix_vector_shape(n):
    x = np.arange(n, dtype=np.uint64)
    assert mixing.splitmix_v(x).shape == (n,)


@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda rows: st.integers(min_value=0, max_value=6).flatmap(
            lambda cols: st.lists(
                st.lists(WORD, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            ).map(lambda g: (g, cols))
        )
    )
)
def test_fold_columns_matches_scalar_fold_per_column(grid_cols):
    grid, cols = grid_cols
    arr = np.array(grid, dtype=np.uint64).reshape(len(grid), cols)
    got = mixing.fold_columns_v(arr)
    assert got.dtype == np.uint64 and got.shape == (cols,)
    assert got.tolist() == [
        mixing.fold_s(int(v) for v in arr[:, j]) for j in range(cols)
    ]
