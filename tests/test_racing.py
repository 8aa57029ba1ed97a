"""Execution policies: redundant-issue racing and work stealing.

Differential suite (no hypothesis import — the bench-smoke zero-skip
gate runs this file alongside tests/test_dense*.py): racing and
stealing may only ever change *when* pebbles complete, never their
values, so every policy run here is checked digest-identical to the
single-issue ground truth.  Fault-free races run on the dense tier,
which must be bit-identical to the greedy oracle (stats, racing
counters, step latencies, digests, replicas, telemetry timelines).
The seeded-grid property tests live in ``tests/test_racing_props.py``.
"""

from __future__ import annotations

import pytest

from repro.core.assignment import Assignment, steal_rebalance
from repro.core.composed import simulate_composed
from repro.core.dense import DenseExecutor, build_executor, resolve_engine
from repro.core.overlap import simulate_overlap, simulate_overlap_on_graph
from repro.core.racing import (
    DEFAULT_FANOUT,
    POLICIES,
    SINGLE,
    ExecPolicy,
    resolve_policy,
)
from repro.core.ring import simulate_ring
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram
from repro.netsim.faults import FaultPlan, RecoveryPolicy
from repro.telemetry import MetricsTimeline
from repro.topology.generators import mesh_host
from repro.topology.presets import get_preset


def _jitter_plan(n: int, seed: int = 7, horizon: int = 80) -> FaultPlan:
    return FaultPlan.random(
        n,
        seed=seed,
        horizon=horizon,
        jitter_rate=0.9,
        drop_rate=0.3,
        max_jitter=12,
    )


def _column_digests(res) -> dict[int, int]:
    """Per-column value digests (ownership-independent: replicated and
    stolen copies of a column must fold to the same digest)."""
    out: dict[int, int] = {}
    for (_p, c), d in res.exec_result.value_digests.items():
        if c in out:
            assert out[c] == d, f"replicas of column {c} disagree"
        else:
            out[c] = d
    return out


# -- policy resolution -------------------------------------------------


def test_policy_names_and_registry():
    assert SINGLE.is_single and SINGLE.name == "single"
    assert resolve_policy(None) is SINGLE
    assert resolve_policy("racing").racing
    assert resolve_policy("stealing").stealing
    both = resolve_policy("racing+stealing")
    assert both.racing and both.stealing
    assert both.name == "racing+stealing"
    # Registry aliases resolve to equal policies.
    assert POLICIES["stealing+racing"] == POLICIES["racing+stealing"]
    assert resolve_policy(ExecPolicy(racing=True)).racing


def test_resolve_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown execution policy"):
        resolve_policy("fastest")


def test_recovery_policy_as_policy_raises():
    # Recovery knobs go through recovery= only; policy= names the
    # execution policy.
    with pytest.raises(TypeError, match="recovery="):
        simulate_overlap(HostArray.uniform(12), steps=4, policy=RecoveryPolicy())


def test_racing_runs_dense_unless_faulted():
    host = HostArray.uniform(12)
    assert resolve_engine("auto", exec_policy="racing") == "dense"
    assert resolve_engine("dense", exec_policy="racing") == "dense"
    res = simulate_overlap(host, steps=4, min_copies=2, policy="racing")
    assert res.engine == "dense"
    res = simulate_overlap(
        host, steps=4, min_copies=2, policy="racing", engine="dense"
    )
    assert res.engine == "dense" and res.verified
    # An empty plan is no plan: still dense.
    assert (
        resolve_engine("auto", faults=FaultPlan.empty(), exec_policy="racing")
        == "dense"
    )
    # Racing under a non-empty fault plan stays on the greedy engine.
    plan = _jitter_plan(12)
    assert resolve_engine("auto", faults=plan, exec_policy="racing") == "greedy"
    # ... which the single-issue policy never forces.
    assert resolve_engine("auto", faults=plan, exec_policy="single") == "dense"
    res = simulate_overlap(
        host, steps=4, min_copies=2, faults=plan, policy="racing"
    )
    assert res.engine == "greedy"
    with pytest.raises(ValueError, match="racing under a fault plan"):
        simulate_overlap(
            host,
            steps=4,
            min_copies=2,
            faults=plan,
            policy="racing",
            engine="dense",
        )


def test_racing_with_multicast_raises():
    from repro.core.executor import GreedyExecutor
    from repro.machine.programs import CounterProgram

    host = HostArray.uniform(12)
    asg = _skewed_assignment(12, 2, 0, heavy=())
    with pytest.raises(ValueError, match="mutually exclusive"):
        GreedyExecutor(
            host,
            asg,
            CounterProgram(),
            4,
            multicast=True,
            exec_policy="racing",
        )


# -- racing: values, counters, telemetry -------------------------------


def test_racing_digest_identical_to_single_issue():
    host = HostArray.uniform(24)
    plan = _jitter_plan(24)
    base = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, engine="greedy"
    )
    raced = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, policy="racing"
    )
    assert base.verified and raced.verified
    assert _column_digests(raced) == _column_digests(base)
    extras = raced.exec_result.stats.extras
    assert extras["raced_wins"] > 0
    assert raced.summary()["policy"] == "racing"


def test_racing_improves_tail_under_drops():
    host = HostArray.uniform(48)
    plan = _jitter_plan(48, seed=1996)
    p99 = {}
    for pol in ("single", "racing"):
        res = simulate_overlap(
            host, steps=16, min_copies=2, faults=plan, policy=pol
        )
        p99[pol] = res.exec_result.stats.step_latency_summary()["p99"]
    assert p99["racing"] < p99["single"]


def test_racing_counters_match_timeline():
    host = HostArray.uniform(24)
    tl = MetricsTimeline()
    res = simulate_overlap(
        host,
        steps=8,
        min_copies=2,
        faults=_jitter_plan(24),
        policy="racing",
        telemetry=tl,
    )
    stats = res.exec_result.stats
    assert tl.totals()["cancelled"] == stats.extras.get("cancelled_messages", 0)
    tl.reconcile(stats)  # cross-checks cancelled + step-latency samples
    lat = stats.step_latency_summary()
    assert lat["count"] == 8
    assert sum(stats.step_latency_samples()) == stats.makespan
    summary = tl.summary()
    assert summary["step_p99"] == lat["p99"]


def test_single_policy_run_records_no_racing_extras():
    host = HostArray.uniform(16)
    res = simulate_overlap(host, steps=4, min_copies=2)
    extras = res.exec_result.stats.extras
    assert "raced_wins" not in extras
    assert "cancelled_messages" not in extras
    assert "policy" not in res.summary()
    lat = res.exec_result.stats.step_latency_summary()
    assert lat is not None and lat["count"] == 4


# -- racing: dense tier vs the greedy oracle ----------------------------


def _fingerprint(result, timeline):
    """Everything observable about one run, in comparable form."""
    stats = dict(result.stats.__dict__)
    stats["extras"] = dict(stats["extras"])
    tl = timeline.as_dict()
    tl.pop("meta", None)
    return {
        "stats": stats,
        "latency": result.stats.step_latency_summary(),
        "digests": dict(result.value_digests),
        "replicas": {k: r.summary() for k, r in result.replicas.items()},
        "timeline": tl,
    }


def _assert_dense_matches_greedy(run):
    """``run(engine, timeline)`` -> a front-end result; the dense race
    must reproduce the greedy oracle bit for bit."""
    prints = {}
    for engine in ("greedy", "dense"):
        tl = MetricsTimeline()
        res = run(engine, tl)
        assert res.engine == engine
        assert res.verified
        stats = res.exec_result.stats
        tl.reconcile(stats)  # cancelled series vs extras, step latencies
        assert tl.totals()["cancelled"] == stats.extras["cancelled_messages"]
        prints[engine] = _fingerprint(res.exec_result, tl)
    assert prints["dense"] == prints["greedy"]
    return prints["dense"]["stats"]["extras"]


def _raced(extras) -> None:
    """The run really raced: copies were both cancelled and lost."""
    assert extras["raced_wins"] > 0
    assert extras["raced_losses"] > 0
    assert extras["cancelled_messages"] > 0


@pytest.mark.parametrize("preset", ["campus", "wan", "mixed-now"])
@pytest.mark.parametrize("n", [48, 72])
def test_dense_racing_matches_greedy_line_presets(preset, n):
    host = get_preset(preset, n=n, seed=n)

    def run(engine, tl):
        return simulate_overlap(
            host,
            steps=10,
            min_copies=2,
            policy="racing",
            engine=engine,
            telemetry=tl,
        )

    _raced(_assert_dense_matches_greedy(run))


@pytest.mark.parametrize("copies", [2, 3])
def test_dense_racing_matches_greedy_ring(copies):
    host = get_preset("campus", n=32, seed=5)

    def run(engine, tl):
        return simulate_ring(
            host,
            m=32,
            steps=8,
            copies=copies,
            policy="racing",
            engine=engine,
            telemetry=tl,
        )

    _raced(_assert_dense_matches_greedy(run))


def test_dense_racing_matches_greedy_on_graph():
    delays = [1 + (7 * i) % 6 for i in range(2 * 6 * 6 - 6 - 6)]
    host = mesh_host(6, 6, delays)

    def run(engine, tl):
        return simulate_overlap_on_graph(
            host,
            steps=8,
            min_copies=2,
            policy="racing",
            engine=engine,
            telemetry=tl,
        )

    _raced(_assert_dense_matches_greedy(run))


def test_dense_racing_matches_greedy_composed():
    host = get_preset("wan", n=40, seed=2)

    def run(engine, tl):
        return simulate_composed(
            host, steps=8, policy="racing", engine=engine, telemetry=tl
        )

    _raced(_assert_dense_matches_greedy(run))


def test_dense_racing_plus_stealing_matches_greedy():
    host = get_preset("mixed-now", n=48, seed=4)

    def run(engine, tl):
        return simulate_overlap(
            host,
            steps=10,
            min_copies=2,
            policy="racing+stealing",
            engine=engine,
            telemetry=tl,
        )

    extras = _assert_dense_matches_greedy(run)
    _raced(extras)
    assert extras["steal_moves"] > 0


def test_dense_racing_fanout3_matches_greedy():
    host = get_preset("wan", n=64, seed=3)
    policy = ExecPolicy(racing=True, fanout=3)

    def run(engine, tl):
        return simulate_overlap(
            host,
            steps=10,
            min_copies=3,
            policy=policy,
            engine=engine,
            telemetry=tl,
        )

    extras = _assert_dense_matches_greedy(run)
    _raced(extras)
    # More copies per race: the fanout-2 run wins as often (every raced
    # slot reaches T once) but loses or cancels fewer copies.
    fanout2 = simulate_overlap(host, steps=10, min_copies=3, policy="racing")
    two = fanout2.exec_result.stats.extras
    assert extras["raced_wins"] == two["raced_wins"]
    assert (
        extras["raced_losses"] + extras["cancelled_messages"]
        > two["raced_losses"] + two["cancelled_messages"]
    )


@pytest.mark.parametrize("bandwidth", [1, 2, 3])
def test_dense_racing_matches_greedy_bandwidth(bandwidth):
    host = get_preset("campus", n=64, seed=1)

    def run(engine, tl):
        return simulate_overlap(
            host,
            steps=10,
            min_copies=2,
            bandwidth=bandwidth,
            policy="racing",
            engine=engine,
            telemetry=tl,
        )

    _raced(_assert_dense_matches_greedy(run))


def test_dense_racing_without_replicas_is_single_issue():
    """With one owner per column nothing races: the counters stay at
    zero and the timing equals the single-issue run."""
    host = HostArray.uniform(16, delay=3)
    asg = _skewed_assignment(16, 3, 0, heavy=())  # disjoint ranges
    raced = build_executor(
        "auto", host, asg, CounterProgram(), 6, exec_policy="racing"
    )
    assert isinstance(raced, DenseExecutor) and raced.fanout == 2
    a = raced.run().stats
    b = build_executor("auto", host, asg, CounterProgram(), 6).run().stats
    assert a.extras.pop("raced_wins") == 0
    assert a.extras.pop("raced_losses") == 0
    assert a.extras.pop("cancelled_messages") == 0
    assert a.__dict__ == b.__dict__


def test_dense_racing_zero_steps_records_counters():
    host = HostArray.uniform(8)
    asg = _skewed_assignment(8, 2, 0, heavy=())
    greedy, dense = (
        build_executor(
            engine, host, asg, CounterProgram(), 0, exec_policy="racing"
        ).run()
        for engine in ("greedy", "dense")
    )
    assert dense.stats.__dict__ == greedy.stats.__dict__
    assert dense.stats.extras["cancelled_messages"] == 0


# -- work stealing -----------------------------------------------------


def _skewed_assignment(n: int, per: int, extra: int, heavy: tuple) -> Assignment:
    sizes = [per + (extra if p in heavy else 0) for p in range(n)]
    ranges, lo = [], 1
    for s in sizes:
        ranges.append((lo, lo + s - 1))
        lo += s
    return Assignment(ranges, lo - 1)


def test_steal_rebalance_preserves_coverage_and_lowers_peak():
    host = HostArray.uniform(16, delay=2)
    asg = _skewed_assignment(16, 2, 6, heavy=(3, 11))
    out, moves = steal_rebalance(asg, host, seed=0)
    assert moves, "a 4x-overloaded victim must shed columns"
    out.validate()
    assert out.m == asg.m
    owners = out.owners()
    assert sorted(owners) == list(range(1, asg.m + 1))

    def peak(a: Assignment) -> int:
        return max(hi - lo + 1 for lo, hi in a.ranges if a is not None)

    assert peak(out) < peak(asg)
    for mv in moves:
        assert set(mv) == {"column", "victim", "thief"}


def test_steal_rebalance_deterministic_and_pure():
    host = HostArray.uniform(16, delay=2)
    asg = _skewed_assignment(16, 2, 6, heavy=(3, 11))
    before = list(asg.ranges)
    out1, moves1 = steal_rebalance(asg, host, seed=5)
    out2, moves2 = steal_rebalance(asg, host, seed=5)
    assert moves1 == moves2
    assert out1.ranges == out2.ranges
    assert asg.ranges == before  # input never mutated


def test_steal_rebalance_balanced_input_untouched():
    host = HostArray.uniform(8, delay=2)
    asg = _skewed_assignment(8, 3, 0, heavy=())
    out, moves = steal_rebalance(asg, host, seed=0)
    assert moves == []
    assert out is asg  # byte-identical single-policy runs


def test_steal_rebalance_max_moves():
    host = HostArray.uniform(16, delay=2)
    asg = _skewed_assignment(16, 2, 6, heavy=(3, 11))
    out, moves = steal_rebalance(asg, host, seed=0, max_moves=2)
    assert len(moves) == 2


def test_stealing_digest_identical_and_counted():
    host = HostArray.uniform(24)
    plan = _jitter_plan(24, seed=3)
    base = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, engine="greedy"
    )
    stolen = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, policy="stealing"
    )
    assert stolen.verified
    assert _column_digests(stolen) == _column_digests(base)
    if stolen.exec_result.stats.extras.get("steal_moves"):
        assert stolen.summary()["steal_moves"] > 0


def test_policy_default_fanout():
    assert DEFAULT_FANOUT == 2
    assert resolve_policy("racing").fanout == DEFAULT_FANOUT


# -- sweep integration -------------------------------------------------


def test_policy_sweep_identical_across_worker_counts():
    from repro.experiments.w1 import _policy_point
    from repro.runner import SweepRunner

    configs = [
        {
            "n": 16,
            "delay": 2,
            "steps": 4,
            "policy": pol,
            "max_jitter": 8,
            "jitter_rate": 0.9,
            "drop_rate": 0.3,
            "seed": 11,
            "horizon": 32,
        }
        for pol in ("single", "racing", "stealing", "racing+stealing")
    ]
    serial = SweepRunner(workers=1).map(_policy_point, configs)
    pooled = SweepRunner(workers=2).map(_policy_point, configs)
    assert pooled == serial
