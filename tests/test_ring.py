"""Ring guests via the fold embedding (dilation 2, slowdown ~2)."""

import pytest

from repro.core.baselines import simulate_single_copy
from repro.core.ring import (
    fold_dilation_in_columns,
    ring_dep_map,
    ring_layout,
    simulate_ring,
    verify_ring_execution,
)
from repro.machine.host import HostArray
from repro.machine.programs import DataflowProgram, TokenProgram


def test_layout_is_bijective():
    for m in (3, 8, 13):
        col_of_node, node_of_col = ring_layout(m)
        assert sorted(col_of_node) == list(range(1, m + 1))
        for k, col in enumerate(col_of_node):
            assert node_of_col[col] == k


def test_dep_map_wires_ring_neighbours():
    m = 10
    dep_map, node_of_col = ring_dep_map(m)
    col_of_node, _ = ring_layout(m)
    for col, (l, r) in dep_map.items():
        k = node_of_col[col]
        assert node_of_col[l] == (k - 1) % m
        assert node_of_col[r] == (k + 1) % m


@pytest.mark.parametrize("m", [4, 7, 12, 33])
def test_fold_dilation_at_most_two(m):
    assert fold_dilation_in_columns(m) <= 2


def test_verified_on_unit_host():
    res = simulate_ring(HostArray.uniform(12, 1), steps=8)
    assert res.verified
    assert res.m == 12


def test_verified_with_delays_and_copies():
    res = simulate_ring(HostArray.uniform(10, 4), steps=6, copies=2)
    assert res.verified
    assert res.exec_result.stats.redundant > 0


def test_other_programs():
    res = simulate_ring(HostArray.uniform(8, 2), steps=5, program=TokenProgram())
    assert res.verified
    res2 = simulate_ring(
        HostArray.uniform(8, 2), steps=5, program=DataflowProgram()
    )
    assert res2.verified


def test_ring_slowdown_within_factor_two_of_array():
    host = HostArray.uniform(16, 2)
    ring = simulate_ring(host, steps=8, verify=False)
    arr = simulate_single_copy(host, steps=8, verify=False)
    assert ring.slowdown <= 2.2 * arr.slowdown


def test_guest_smaller_than_host():
    res = simulate_ring(HostArray.uniform(16, 1), m=8, steps=6)
    assert res.verified


def test_rejects_tiny_ring():
    with pytest.raises(ValueError):
        simulate_ring(HostArray.uniform(4, 1), m=2)


def test_token_circulates_around_the_ring():
    """A token program's value at node 0 after m steps has absorbed the
    whole ring (wrap-around actually exercised)."""
    from repro.machine.guest import GuestRing

    m = 6
    ref_ring = GuestRing(m, TokenProgram()).run_reference(m)
    # The value at step m differs from a non-wrapping array of the same
    # size (where node 0's left parent is a boundary instead).
    from repro.machine.guest import GuestArray

    ref_arr = GuestArray(m, TokenProgram()).run_reference(m)
    assert int(ref_ring[m, 0]) != int(ref_arr.values[m, 1])


def _good_ring_run(steps=5, copies=2):
    from repro.machine.guest import GuestRing
    from repro.machine.programs import CounterProgram

    m = 10
    res = simulate_ring(
        HostArray.uniform(10, 3), steps=steps, copies=copies, verify=False
    )
    ref = GuestRing(m, CounterProgram()).run_reference_full(steps)
    _, node_of_col = ring_dep_map(m)
    return res.exec_result, ref, CounterProgram(), node_of_col


def test_ring_verifier_passes_clean_run():
    result, ref, prog, node_of_col = _good_ring_run()
    assert verify_ring_execution(result, ref, prog, node_of_col) == len(
        result.value_digests
    )


def test_ring_verifier_detects_tampered_value_digest():
    result, ref, prog, node_of_col = _good_ring_run()
    key = next(iter(result.value_digests))
    result.value_digests[key] ^= 1
    with pytest.raises(AssertionError, match="pebble values diverge"):
        verify_ring_execution(result, ref, prog, node_of_col)


def test_ring_verifier_detects_tampered_update_digest():
    result, ref, prog, node_of_col = _good_ring_run()
    key = next(iter(result.replicas))
    result.replicas[key].digest ^= 1
    with pytest.raises(AssertionError, match="update digest diverges"):
        verify_ring_execution(result, ref, prog, node_of_col)


def test_ring_verifier_detects_final_state_divergence():
    result, ref, prog, node_of_col = _good_ring_run()
    key = next(iter(result.replicas))
    result.replicas[key].state ^= 0xFF
    with pytest.raises(AssertionError, match="final state diverges"):
        verify_ring_execution(result, ref, prog, node_of_col)


def test_ring_verifier_detects_wrong_update_count():
    result, ref, prog, node_of_col = _good_ring_run()
    key = next(iter(result.replicas))
    result.replicas[key].version -= 1
    with pytest.raises(AssertionError, match="wrong update count"):
        verify_ring_execution(result, ref, prog, node_of_col)


def test_ring_verifier_detects_unverified_node():
    # Drop every replica of one ring node: the others still number at
    # least m replicas (copies=2), so only a per-node coverage check
    # can notice.
    result, ref, prog, node_of_col = _good_ring_run()
    col = next(iter(result.value_digests))[1]
    for key in [k for k in result.value_digests if k[1] == col]:
        del result.value_digests[key]
        del result.replicas[key]
    assert len(result.value_digests) >= ref.m
    with pytest.raises(AssertionError, match="never verified"):
        verify_ring_execution(result, ref, prog, node_of_col)
