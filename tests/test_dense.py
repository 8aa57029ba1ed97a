"""Differential tests: DenseExecutor must be bit-identical to
GreedyExecutor on every fault-free config.

The dense tier is a reimplementation of the same semantics, not an
approximation, so these tests compare *everything* a run produces —
makespan, pebble/message/hop counters, per-processor work (replica
versions), value digests and replica digests — across configs spanning
the e1 (random-delay OVERLAP), e3 (uniform-delay Theorem 4) and e5
(graph-embedded Theorem 6) parameter grids.

The CI bench-compare gate refuses runs where these tests were skipped,
so keep them dependency-light and fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import assign_databases
from repro.core.baselines import (
    simulate_prior_efficient,
    simulate_single_copy,
    spread_assignment,
)
from repro.core.dense import DenseExecutor, build_executor, resolve_engine
from repro.core.executor import GreedyExecutor
from repro.core.killing import kill_and_label
from repro.core.overlap import simulate_overlap, simulate_overlap_on_graph
from repro.core.uniform import simulate_uniform, uniform_assignment
from repro.machine.host import HostArray
from repro.machine.programs import (
    CounterProgram,
    KeyedStoreProgram,
    LedgerProgram,
    get_program,
)
from repro.netsim.faults import FaultPlan
from repro.topology.delays import scale_to_average, uniform_delays
from repro.topology.generators import mesh_host, now_cluster_host, tree_host

# ---------------------------------------------------------------------------
# helpers


def _random_host(n: int, d_ave: float, seed: int) -> HostArray:
    rng = np.random.default_rng(seed)
    return HostArray(scale_to_average(uniform_delays(n - 1, rng, 1, 8), d_ave))


def _stats_tuple(result):
    s = result.stats
    return (
        s.makespan,
        s.pebbles,
        s.messages,
        s.pebble_hops,
        s.procs_used,
        s.redundant,
    )


def _per_proc_work(result):
    """Pebbles computed per host position == sum of replica versions."""
    work: dict[int, int] = {}
    for (p, _c), rep in result.replicas.items():
        work[p] = work.get(p, 0) + rep.version
    return work


def _telemetry_dict(timeline):
    """Timeline contents minus ``meta`` (whose ``engine`` tag differs)."""
    d = timeline.as_dict()
    d.pop("meta", None)
    return d


def assert_bit_identical(
    host, assignment, program, steps, bandwidth=None, **kwargs
):
    from repro.telemetry import MetricsTimeline

    tg, td = MetricsTimeline(), MetricsTimeline()
    greedy = GreedyExecutor(
        host, assignment, program, steps, bandwidth, telemetry=tg, **kwargs
    ).run()
    dense = DenseExecutor(
        host, assignment, program, steps, bandwidth, telemetry=td, **kwargs
    ).run()
    assert _stats_tuple(dense) == _stats_tuple(greedy)
    assert _per_proc_work(dense) == _per_proc_work(greedy)
    assert dense.value_digests == greedy.value_digests
    assert dense.replicas.keys() == greedy.replicas.keys()
    for key, rep in greedy.replicas.items():
        assert dense.replicas[key].summary() == rep.summary(), key
    assert _telemetry_dict(td) == _telemetry_dict(tg)
    return greedy, dense


# ---------------------------------------------------------------------------
# e1-style grid: OVERLAP assignments on random-delay hosts

E1_GRID = [
    # (n, d_ave, steps, block, bandwidth, min_copies, seed)
    (24, 2.0, 6, 1, None, None, 0),
    (24, 4.0, 6, 1, None, None, 1),
    (32, 2.0, 8, 2, None, None, 2),
    (32, 6.0, 8, 2, None, None, 3),
    (48, 4.0, 8, 1, None, None, 4),
    (48, 4.0, 8, 2, 1, None, 5),  # bandwidth-1 regime: slot contention
    (64, 8.0, 10, 2, None, None, 6),
    (40, 3.0, 8, 1, None, 2, 7),  # min_copies=2: multi-subscriber streams
    (40, 5.0, 12, 3, None, None, 8),
    (56, 2.0, 6, 1, 2, None, 9),
]


@pytest.mark.parametrize("n,d_ave,steps,block,bw,copies,seed", E1_GRID)
def test_differential_e1_overlap(n, d_ave, steps, block, bw, copies, seed):
    host = _random_host(n, d_ave, seed)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, block, min_copies=copies or 1)
    assert_bit_identical(host, assignment, CounterProgram(), steps, bw)


# ---------------------------------------------------------------------------
# e3-style grid: Theorem-4 block assignments on uniform-delay hosts

E3_GRID = [
    # (n, d, steps, bandwidth)
    (6, 4, 4, None),
    (6, 16, 8, None),
    (8, 16, 8, 1),
    (8, 64, 16, None),
    (10, 36, 12, None),
    (12, 9, 6, 2),
]


@pytest.mark.parametrize("n,d,steps,bw", E3_GRID)
def test_differential_e3_uniform(n, d, steps, bw):
    from repro.core.uniform import block_width

    host = HostArray.uniform(n, d)
    assignment = uniform_assignment(n, block_width(d))
    assert_bit_identical(host, assignment, CounterProgram(), steps, bw)


# ---------------------------------------------------------------------------
# e5-style grid: graph hosts reduced to arrays via the Fact-3 embedding


def _e5_hosts():
    rng = np.random.default_rng(7)
    yield mesh_host(4, 4, uniform_delays(24, rng, 1, 6))
    yield tree_host(4, uniform_delays(30, rng, 1, 6))
    yield now_cluster_host(4, 4, intra_delay=1, inter_delay=8)


@pytest.mark.parametrize("host", list(_e5_hosts()), ids=lambda h: h.name)
def test_differential_e5_graph(host):
    from repro.topology.embedding import embed_linear_array

    array = embed_linear_array(host).host_array()
    killing = kill_and_label(array)
    assignment = assign_databases(killing, 2)
    assert_bit_identical(array, assignment, CounterProgram(), 8)


# ---------------------------------------------------------------------------
# ring grid: folded-ring dep_map/col_label wiring through the watermark
# skeleton.  Covers single- and multi-copy layouts, every program
# family (vectorised and structured-state), bandwidth contention and
# guests smaller than the host.

RING_GRID = [
    # (n, m, d_ave, steps, program, copies, bandwidth, seed)
    (16, 16, 2.0, 4, "counter", 1, None, 0),
    (16, 8, 2.0, 6, "counter", 1, None, 1),
    (24, 24, 4.0, 6, "counter", 2, None, 2),
    (24, 24, 4.0, 6, "counter", 2, 2, 3),
    (24, 12, 3.0, 8, "dataflow", 1, None, 4),
    (32, 32, 2.0, 8, "hashchain", 1, None, 5),
    (32, 32, 6.0, 8, "hashchain", 3, None, 6),
    (32, 16, 4.0, 6, "token", 2, None, 7),
    (40, 40, 3.0, 8, "ledger", 1, None, 8),
    (40, 40, 5.0, 6, "ledger", 2, 1, 9),
    (40, 20, 4.0, 8, "keyed", 1, None, 10),
    (48, 48, 4.0, 8, "counter", 1, 1, 11),
    (48, 48, 8.0, 10, "relax", 2, 3, 12),
    (48, 24, 2.0, 6, "relax", 1, None, 13),
    (56, 56, 5.0, 8, "token", 1, None, 14),
    (56, 56, 3.0, 6, "keyed", 2, None, 15),
    (64, 64, 8.0, 10, "counter", 2, None, 16),
    (64, 64, 4.0, 8, "dataflow", 3, 2, 17),
    (64, 32, 6.0, 8, "hashchain", 1, None, 18),
    (24, 24, 2.0, 0, "counter", 1, None, 19),  # zero-step ring run
    (16, 5, 2.0, 5, "counter", 1, None, 20),  # odd-size ring fold
]


def _ring_setup(n, m, d_ave, copies, seed):
    from repro.core.ring import ring_dep_map
    from repro.lower_bounds.audit import windowed_assignment

    host = _random_host(n, d_ave, 100 + seed)
    dep_map, node_of_col = ring_dep_map(m)
    label = lambda col: node_of_col[col] + 1  # noqa: E731
    if copies <= 1:
        asg = spread_assignment(n, m)
    else:
        asg = windowed_assignment(n, m, copies=copies)
    return host, asg, dep_map, label


@pytest.mark.parametrize("n,m,d_ave,steps,prog,copies,bw,seed", RING_GRID)
def test_differential_ring(n, m, d_ave, steps, prog, copies, bw, seed):
    host, asg, dep_map, label = _ring_setup(n, m, d_ave, copies, seed)
    assert_bit_identical(
        host, asg, get_program(prog), steps, bw,
        dep_map=dep_map, col_label=label,
    )


def test_simulate_ring_engines_agree():
    from repro.core.ring import simulate_ring

    host = _random_host(32, 3.0, 23)
    greedy = simulate_ring(host, steps=6, engine="greedy")
    dense = simulate_ring(host, steps=6, engine="dense")
    auto = simulate_ring(host, steps=6)
    assert greedy.engine == "greedy"
    assert dense.engine == "dense" and auto.engine == "dense"
    assert greedy.verified and dense.verified and auto.verified
    assert (
        _stats_tuple(dense.exec_result)
        == _stats_tuple(greedy.exec_result)
        == _stats_tuple(auto.exec_result)
    )
    assert dense.exec_result.value_digests == greedy.exec_result.value_digests


def test_simulate_ring_multicopy_engines_agree():
    from repro.core.ring import simulate_ring

    host = _random_host(40, 4.0, 24)
    greedy = simulate_ring(host, steps=6, copies=2, engine="greedy")
    dense = simulate_ring(host, steps=6, copies=2, engine="dense")
    assert dense.engine == "dense"
    assert _stats_tuple(dense.exec_result) == _stats_tuple(greedy.exec_result)


# ---------------------------------------------------------------------------
# graph-host grid: arbitrary connected hosts reduced to arrays by the
# Fact-3 embedding — the embedding precomputes the per-assignment route
# delays into the induced array's flat link_delays, so the fault-free
# run is a dense-tier workload like any native array.

GRAPH_GRID = [
    # (kind, a, b, block, steps, bandwidth, seed)
    ("mesh", 3, 3, 1, 6, None, 0),
    ("mesh", 3, 4, 2, 6, None, 1),
    ("mesh", 4, 4, 1, 8, None, 2),
    ("mesh", 4, 4, 2, 8, 1, 3),
    ("mesh", 4, 5, 2, 8, None, 4),
    ("mesh", 5, 5, 3, 8, None, 5),
    ("mesh", 4, 6, 1, 10, 2, 6),
    ("mesh", 6, 6, 2, 6, None, 7),
    ("tree", 3, 14, 1, 6, None, 8),
    ("tree", 3, 14, 2, 8, None, 9),
    ("tree", 4, 30, 1, 8, None, 10),
    ("tree", 4, 30, 2, 8, 1, 11),
    ("tree", 4, 30, 3, 6, None, 12),
    ("tree", 5, 62, 2, 8, None, 13),
    ("now", 3, 3, 1, 6, None, 14),
    ("now", 3, 4, 2, 8, None, 15),
    ("now", 4, 4, 1, 8, None, 16),
    ("now", 4, 4, 2, 6, 2, 17),
    ("now", 5, 3, 2, 8, None, 18),
    ("now", 2, 8, 1, 8, None, 19),
    ("now", 4, 6, 3, 10, None, 20),
]


def _graph_host(kind, a, b, seed):
    rng = np.random.default_rng(200 + seed)
    if kind == "mesh":
        return mesh_host(a, b, uniform_delays(2 * a * b - a - b, rng, 1, 6))
    if kind == "tree":
        return tree_host(a, uniform_delays(b, rng, 1, 6))
    return now_cluster_host(a, b, intra_delay=1, inter_delay=8)


@pytest.mark.parametrize("kind,a,b,block,steps,bw,seed", GRAPH_GRID)
def test_differential_graph(kind, a, b, block, steps, bw, seed):
    from repro.topology.embedding import embed_linear_array

    host = _graph_host(kind, a, b, seed)
    array = embed_linear_array(host).host_array()
    killing = kill_and_label(array)
    assignment = assign_databases(killing, block)
    assert_bit_identical(array, assignment, CounterProgram(), steps, bw)


def test_simulate_composed_engines_agree():
    from repro.core.composed import simulate_composed

    host = _random_host(24, 4.0, 25)
    greedy = simulate_composed(host, steps=6, engine="greedy")
    dense = simulate_composed(host, steps=6, engine="dense")
    auto = simulate_composed(host, steps=6)
    assert greedy.engine == "greedy"
    assert dense.engine == "dense" and auto.engine == "dense"
    assert greedy.verified and dense.verified and auto.verified
    assert (
        _stats_tuple(dense.exec_result)
        == _stats_tuple(greedy.exec_result)
        == _stats_tuple(auto.exec_result)
    )


def test_simulate_composed_on_graph_engines_agree():
    from repro.core.composed import simulate_composed_on_graph

    rng = np.random.default_rng(26)
    host = mesh_host(4, 4, uniform_delays(24, rng, 1, 6))
    greedy = simulate_composed_on_graph(host, steps=6, engine="greedy")
    dense = simulate_composed_on_graph(host, steps=6, engine="dense")
    assert dense.engine == "dense"
    assert dense.embedding is not None
    assert _stats_tuple(dense.exec_result) == _stats_tuple(greedy.exec_result)


def test_run_assignment_engines_agree():
    from repro.core.executor import run_assignment

    host = _random_host(24, 3.0, 27)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, 1)
    greedy = run_assignment(host, assignment, CounterProgram(), 6, engine="greedy")
    dense = run_assignment(host, assignment, CounterProgram(), 6, engine="dense")
    auto = run_assignment(host, assignment, CounterProgram(), 6)
    assert (
        _stats_tuple(dense)
        == _stats_tuple(greedy)
        == _stats_tuple(auto)
    )
    assert dense.value_digests == greedy.value_digests


def test_build_executor_ring_dispatch():
    # dep_map alone no longer forces greedy: the dense tier resolves it.
    host, asg, dep_map, label = _ring_setup(16, 16, 2.0, 1, 99)
    ex = build_executor(
        "auto", host, asg, CounterProgram(), 4,
        dep_map=dep_map, col_label=label,
    )
    assert isinstance(ex, DenseExecutor)
    ex = build_executor(
        "greedy", host, asg, CounterProgram(), 4,
        dep_map=dep_map, col_label=label,
    )
    assert isinstance(ex, GreedyExecutor)


# ---------------------------------------------------------------------------
# extra shapes: relay positions, single columns, scalar-state programs


def test_differential_spread_with_relays():
    # prior-efficient layout: most positions hold nothing and only relay
    host = _random_host(32, 6.0, 11)
    assignment = spread_assignment(32, 16, positions=[0, 10, 21, 31])
    assert_bit_identical(host, assignment, CounterProgram(), 8)


def test_differential_single_column_guest():
    host = _random_host(8, 2.0, 12)
    assignment = spread_assignment(8, 1, positions=[3])
    assert_bit_identical(host, assignment, CounterProgram(), 6)


@pytest.mark.parametrize("prog_name", ["ledger", "keyed", "hashchain", "token"])
def test_differential_program_zoo(prog_name):
    # ledger/keyed exercise the scalar (structured-state) value path;
    # hashchain/token the vectorised one with different mixing.
    host = _random_host(24, 3.0, 13)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, 1)
    assert_bit_identical(host, assignment, get_program(prog_name), 6)


def test_differential_zero_steps():
    host = _random_host(16, 2.0, 14)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, 1)
    assert_bit_identical(host, assignment, CounterProgram(), 0)


# ---------------------------------------------------------------------------
# front-end equivalence: simulate_* with engine= must agree end to end


def test_simulate_overlap_engines_agree():
    host = _random_host(48, 4.0, 21)
    greedy = simulate_overlap(host, steps=8, block=2, engine="greedy")
    dense = simulate_overlap(host, steps=8, block=2, engine="dense")
    auto = simulate_overlap(host, steps=8, block=2)
    assert dense.engine == "dense" and auto.engine == "dense"
    assert greedy.engine == "greedy"
    assert dense.summary() == greedy.summary() == auto.summary()
    assert (
        _stats_tuple(dense.exec_result)
        == _stats_tuple(greedy.exec_result)
        == _stats_tuple(auto.exec_result)
    )


def test_simulate_uniform_engines_agree():
    greedy = simulate_uniform(8, 16, steps=8, engine="greedy")
    dense = simulate_uniform(8, 16, steps=8, engine="dense")
    assert _stats_tuple(dense.exec_result) == _stats_tuple(greedy.exec_result)
    assert dense.verified and greedy.verified


def test_simulate_overlap_on_graph_engines_agree():
    rng = np.random.default_rng(3)
    host = mesh_host(4, 4, uniform_delays(24, rng, 1, 6))
    greedy = simulate_overlap_on_graph(host, steps=8, engine="greedy")
    dense = simulate_overlap_on_graph(host, steps=8, engine="dense")
    assert dense.engine == "dense"
    assert _stats_tuple(dense.exec_result) == _stats_tuple(greedy.exec_result)


def test_baselines_engines_agree():
    host = _random_host(32, 5.0, 22)
    for fn in (simulate_single_copy, simulate_prior_efficient):
        greedy = fn(host, steps=8, engine="greedy")
        dense = fn(host, steps=8, engine="dense")
        assert _stats_tuple(dense.exec_result) == _stats_tuple(
            greedy.exec_result
        )
        assert dense.makespan == greedy.makespan


# ---------------------------------------------------------------------------
# engine selection rules


def test_resolve_engine_auto_prefers_dense():
    assert resolve_engine("auto") == "dense"
    assert resolve_engine("greedy") == "greedy"
    assert resolve_engine("dense") == "dense"


def test_resolve_engine_fallback_triggers():
    # Since the segmented tier, faults no longer force greedy — only
    # tracing, multicast and tie_seed remain.
    plan = FaultPlan.random(16, seed=1, horizon=32, node_crash_rate=0.5)
    assert not plan.is_empty
    assert resolve_engine("auto", faults=plan) == "dense"
    assert resolve_engine("auto", faults=FaultPlan.empty()) == "dense"
    assert resolve_engine("auto", trace=object()) == "greedy"
    assert resolve_engine("auto", multicast=True) == "greedy"
    assert resolve_engine("auto", tie_seed=7) == "greedy"


def test_resolve_engine_dense_refuses_greedy_features():
    plan = FaultPlan.random(16, seed=1, horizon=32, node_crash_rate=0.5)
    # Faults are dense-capable now.
    assert resolve_engine("dense", faults=plan) == "dense"
    with pytest.raises(ValueError, match="tracing"):
        resolve_engine("dense", trace=object())
    with pytest.raises(ValueError, match="multicast"):
        resolve_engine("dense", multicast=True)
    with pytest.raises(ValueError, match="scheduling jitter"):
        resolve_engine("dense", tie_seed=7)
    with pytest.raises(ValueError):
        resolve_engine("nope")


def test_simulate_overlap_auto_runs_faults_densely():
    host = _random_host(32, 3.0, 30)
    plan = FaultPlan.random(
        host.n, seed=4, horizon=64, link_outage_rate=0.1
    )
    assert not plan.is_empty
    res = simulate_overlap(host, steps=6, faults=plan, verify=False)
    assert res.engine == "dense"
    greedy = simulate_overlap(
        host, steps=6, faults=plan, verify=False, engine="greedy"
    )
    assert greedy.engine == "greedy"
    assert _stats_tuple(res.exec_result) == _stats_tuple(greedy.exec_result)


def test_build_executor_dispatch():
    host = _random_host(16, 2.0, 31)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, 1)
    prog = CounterProgram()
    assert isinstance(
        build_executor("auto", host, assignment, prog, 4), DenseExecutor
    )
    assert isinstance(
        build_executor("greedy", host, assignment, prog, 4), GreedyExecutor
    )
    assert isinstance(
        build_executor(
            "auto", host, assignment, prog, 4, tie_seed=3
        ),
        GreedyExecutor,
    )


def test_dense_verifies_against_reference():
    # End-to-end: dense results pass the bit-exact reference check.
    host = _random_host(40, 4.0, 33)
    res = simulate_overlap(host, steps=8, engine="dense", verify=True)
    assert res.verified
