"""Golden regression pins.

Every run in this repository is deterministic, so a handful of exact
output values guard the whole stack against accidental semantic drift
(a changed mixing constant, a scheduling-order tweak, an off-by-one in
the pipelined-link model would all move these numbers).  If a change
*intentionally* alters semantics, update the pins in the same commit
and say why.
"""

from repro.core.overlap import simulate_overlap
from repro.core.ring import simulate_ring
from repro.core.uniform import simulate_uniform
from repro.machine.guest import GuestArray
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram

GOLDEN_HOST = [1, 5, 2, 9, 1, 3, 7, 2, 4, 6, 1, 8, 3, 2, 5]

#: Digest of :func:`_setup_fingerprint` (killing, assignment and
#: subscription setup over 50 seeded configurations).
SETUP_SHA256 = "0dd9cec386778f611080fce1a30f90faeab3dafaebeaa0ab260b1fc7705e98f8"


def test_reference_grid_values_pinned():
    ref = GuestArray(8, CounterProgram()).run_reference(5)
    assert int(ref.values[5, 1]) == 3541152622121647128
    assert int(ref.values[5, 8]) == 17163625588304628634
    assert int(ref.update_digests[2]) == 6276431966630397882


def test_overlap_run_pinned():
    res = simulate_overlap(HostArray(GOLDEN_HOST, "golden"), steps=8, verify=False)
    stats = res.exec_result.stats
    assert res.m == 14
    assert stats.makespan == 47
    assert stats.pebbles == 240


def test_uniform_run_pinned():
    res = simulate_uniform(4, 16, steps=8, verify=False)
    assert res.exec_result.stats.makespan == 98


def test_ring_run_pinned():
    res = simulate_ring(HostArray.uniform(8, 3), steps=6, verify=False)
    assert res.exec_result.stats.makespan == 36


def test_overlap_run_is_also_correct():
    # The pinned run, with full verification on (belt and braces).
    res = simulate_overlap(HostArray(GOLDEN_HOST, "golden"), steps=8, verify=True)
    assert res.verified


def _setup_configs(count: int = 50):
    """Seeded setup configurations: preset host (every other one with an
    outlier link, so stage 1 kills), ``c``, a clustered failure region
    (so stage 2 kills), block, replica floor, racing fanout and guest
    wiring (line or ring)."""
    import random

    from repro.topology.presets import campus, mixed_now, wan

    presets = (campus, wan, mixed_now)
    rng = random.Random(20241)
    for i in range(count):
        make = presets[i % len(presets)]
        n = rng.randint(8, 160)
        host = make(n=n, seed=rng.randrange(1000))
        if i % 2:
            delays = list(host.link_delays)
            delays[rng.randrange(n - 1)] *= rng.choice((16, 64, 256)) * n
            host = HostArray(delays, host.name)
        lo = rng.randrange(n)
        hi = min(n, lo + rng.randint(0, n // 2))
        dead = {p for p in range(lo, hi) if rng.random() < 0.95}
        yield (
            host,
            rng.choice((3.0, 4.0, 5.0)),
            dead,
            rng.randint(1, 2),
            rng.randint(1, 2),
            rng.randint(1, 3),
            i % 4 == 3,
        )


def _setup_fingerprint(count: int = 50) -> str:
    """SHA-256 over the whole per-run setup plane of
    :func:`_setup_configs`: the killing stages' live array, killed sets
    and every tree node's ``removed``/``label2``/``label3`` (floats as
    exact hex), the database ranges, and the dense executor's
    subscriber lists (in order), external columns and raced columns."""
    import hashlib

    from repro.core.assignment import assign_databases
    from repro.core.dense import DenseExecutor
    from repro.core.killing import kill_and_label
    from repro.core.ring import ring_dep_map

    def fx(x):
        return None if x is None else float(x).hex()

    h = hashlib.sha256()
    for host, c, dead, block, copies, fanout, ring in _setup_configs(count):
        res = kill_and_label(host, c, forced_dead=dead)
        h.update(repr((
            res.live.tolist(),
            sorted(res.killed_stage1),
            sorted(res.killed_stage2),
            [(nd.removed, fx(nd.label2), fx(nd.label3))
             for nd in res.tree.all_nodes()],
        )).encode())
        try:
            asg = assign_databases(res, block, min_copies=copies)
        except ValueError as exc:
            h.update(repr(("no-assignment", str(exc))).encode())
            continue
        h.update(repr((asg.m, list(asg.ranges))).encode())
        dep_map = label = None
        if ring and asg.m >= 3:
            dep_map, node_of_col = ring_dep_map(asg.m)
            label = lambda col, nc=node_of_col: nc[col] + 1  # noqa: E731
        ex = DenseExecutor(
            host, asg, CounterProgram(), 4,
            dep_map=dep_map, col_label=label, fanout=fanout,
        )
        h.update(repr((
            sorted(ex.subscribers.items()),
            sorted(ex._ext_cols.items()),
            sorted(ex._raced_cols),
        )).encode())
    return h.hexdigest()


def test_setup_plane_pinned():
    # Any drift in the killing labels (float summation order), the
    # database ranges or the subscription lists (tie-break, order)
    # moves this digest.
    assert _setup_fingerprint() == SETUP_SHA256
