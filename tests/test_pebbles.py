"""Pebble dependency rule and cones (Figure 1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine.pebbles import (
    BOUNDARY_LEFT,
    BOUNDARY_RIGHT,
    boundary_value,
    boundary_values,
    cone,
    cone_size,
    initial_value,
    initial_values,
    parents,
)


def test_parents_order_and_shape():
    assert parents(5, 3) == [(4, 2), (5, 2), (6, 2)]


def test_parents_require_positive_time():
    with pytest.raises(ValueError):
        parents(1, 0)


def test_cone_of_step1_is_three_parents_in_row0():
    assert cone(5, 1, 10) == {(4, 0), (5, 0), (6, 0)}


def test_cone_clips_at_guest_edges():
    c = cone(1, 2, 10)
    assert (0, 1) not in c  # boundary columns excluded
    assert (1, 1) in c and (2, 1) in c


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=30),
)
def test_cone_size_matches_enumeration(i, t, m):
    if i > m:
        i = m
    assert cone_size(i, t, m) == len(cone(i, t, m))


def test_cone_grows_quadratically_in_open_space():
    # Away from edges the cone of (i, t) has t rows of widths 3,5,...,2t+1.
    m, i, t = 100, 50, 6
    assert cone_size(i, t, m) == sum(2 * k + 1 for k in range(1, t + 1))


def test_initial_values_distinct():
    vals = {initial_value(i) for i in range(1, 200)}
    assert len(vals) == 199


def test_boundary_values_distinct_by_side_and_time():
    left = {boundary_value(BOUNDARY_LEFT, t) for t in range(50)}
    right = {boundary_value(BOUNDARY_RIGHT, t) for t in range(50)}
    assert len(left) == 50
    assert len(right) == 50
    assert not left & right


def test_boundary_rejects_bad_side():
    with pytest.raises(ValueError):
        boundary_value(123, 1)


@given(st.integers(min_value=0, max_value=300))
def test_initial_values_match_scalar(m):
    got = initial_values(m)
    assert got.dtype == np.uint64 and got.shape == (m,)
    assert got.tolist() == [initial_value(i) for i in range(1, m + 1)]


@given(
    st.sampled_from((BOUNDARY_LEFT, BOUNDARY_RIGHT)),
    st.integers(min_value=0, max_value=300),
)
def test_boundary_values_match_scalar(side, steps):
    got = boundary_values(side, steps)
    assert got.dtype == np.uint64 and got.shape == (steps + 1,)
    assert got.tolist() == [boundary_value(side, t) for t in range(steps + 1)]


def test_boundary_values_reject_bad_side():
    with pytest.raises(ValueError):
        boundary_values(123, 4)
