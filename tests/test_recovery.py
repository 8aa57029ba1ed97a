"""Mid-run detection and recovery: crashes, retries, epoch restarts.

The chaos-style contract these tests pin down: any fault schedule
either completes ``verified=True`` (possibly on a reduced surviving
guest) or raises :class:`SimulationDeadlock` — never silently-wrong
pebble values.
"""

import pytest

from repro.core.assignment import assign_databases
from repro.core.executor import GreedyExecutor, SimulationDeadlock
from repro.core.killing import kill_and_label
from repro.core.overlap import simulate_overlap
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram
from repro.netsim.faults import FaultPlan, RecoveryPolicy
from repro.netsim.trace import Trace

HOST_N = 48
STEPS = 8


def _host():
    return HostArray.uniform(HOST_N)


def test_single_crash_recovers_with_smaller_guest():
    host = _host()
    clean = simulate_overlap(host, steps=STEPS, min_copies=2)
    plan = FaultPlan().crash(10, 5)
    res = simulate_overlap(host, steps=STEPS, min_copies=2, faults=plan)
    stats = res.exec_result.stats
    assert res.verified
    assert res.m_surviving < res.m
    assert stats.recoveries == 1
    assert stats.crashed_nodes == 1
    assert stats.columns_lost == res.m - res.m_surviving
    # The epoch restart costs real host time.
    assert stats.makespan > clean.exec_result.stats.makespan
    assert res.summary()["m_surviving"] == res.m_surviving


def test_scattered_quarter_kill_completes_verified():
    host = _host()
    plan = FaultPlan()
    scattered = [3, 11, 19, 27, 35, 43]  # 6/48 = 12.5%, well under 25%
    for i, pos in enumerate(scattered):
        plan.crash(pos, 4 + 3 * i)
    res = simulate_overlap(host, steps=STEPS, min_copies=2, faults=plan)
    assert res.verified
    assert res.m_surviving < res.m
    assert res.exec_result.stats.recoveries >= 1
    dead_held = [p for p in scattered if res.exec_result.assignment.ranges[p]]
    assert not dead_held  # crashed nodes hold nothing in the final epoch


def test_killing_all_replicas_of_interval_deadlocks_with_diagnostics():
    host = _host()
    base = simulate_overlap(host, steps=STEPS, min_copies=2)
    owners = base.assignment.owners()
    col = 5
    plan = FaultPlan()
    for pos in sorted(set(owners[col])):
        plan.crash(pos, 5)  # correlated: all replicas die at once
    with pytest.raises(SimulationDeadlock) as info:
        simulate_overlap(host, steps=STEPS, min_copies=2, faults=plan)
    exc = info.value
    assert "replica" in str(exc)
    assert exc.pending  # stuck pebbles attached
    assert exc.fault_log  # fault events seen so far attached
    assert any("crash" in line for line in exc.fault_log)


def test_crash_of_relay_only_node_needs_no_recovery():
    host = _host()
    # Position 5 is forced dead up front: it holds no databases and
    # only relays.  Its mid-run "crash" must not trigger an epoch
    # restart.
    plan = FaultPlan().crash(5, 6)
    res = simulate_overlap(
        host, steps=STEPS, min_copies=2, forced_dead={5}, faults=plan
    )
    stats = res.exec_result.stats
    assert res.verified
    assert stats.crashed_nodes == 1
    assert stats.recoveries == 0
    assert res.m_surviving == res.m


def test_permanent_partition_deadlocks_after_retry_budget():
    host = _host()
    plan = FaultPlan().link_down(HOST_N // 2, 3)  # permanent, mid-array
    with pytest.raises(SimulationDeadlock) as info:
        simulate_overlap(host, steps=STEPS, min_copies=2, faults=plan)
    msg = str(info.value)
    assert "stalled" in msg or "progress" in msg
    assert info.value.undelivered  # the starved streams are attached


def test_drops_and_jitter_are_absorbed_by_retries():
    host = _host()
    plan = (
        FaultPlan()
        .jitter(10, 2, 30, 5)
        .drop(30, 4)
        .drop(15, 6, direction=-1)
    )
    res = simulate_overlap(host, steps=STEPS, min_copies=2, faults=plan)
    stats = res.exec_result.stats
    assert res.verified
    assert stats.lost_messages >= 2  # both drops fired
    assert stats.retries >= 1  # and were re-requested
    assert stats.recoveries == 0  # no node died, no epoch restart


def test_transient_outage_recovers():
    host = _host()
    plan = FaultPlan().link_down(20, 4, duration=12)
    res = simulate_overlap(host, steps=STEPS, min_copies=2, faults=plan)
    assert res.verified
    assert res.exec_result.stats.lost_messages >= 1


def test_restart_penalty_is_charged():
    host = _host()
    plan = FaultPlan().crash(10, 5)
    cheap = simulate_overlap(
        host, steps=STEPS, min_copies=2, faults=plan,
        recovery=RecoveryPolicy(restart_penalty=0),
    )
    costly = simulate_overlap(
        host, steps=STEPS, min_copies=2, faults=plan,
        recovery=RecoveryPolicy(restart_penalty=500),
    )
    assert costly.verified and cheap.verified
    assert (
        costly.exec_result.stats.makespan
        >= cheap.exec_result.stats.makespan + 500
    )


def test_trace_marks_crash_and_recovery():
    host = _host()
    trace = Trace()
    killing = kill_and_label(host)
    assignment = assign_databases(killing, min_copies=2)
    GreedyExecutor(
        host, assignment, CounterProgram(), STEPS,
        faults=FaultPlan().crash(10, 5), trace=trace,
    ).run()
    kinds = {kind for _t, kind, _d in trace.fault_marks}
    assert "crash" in kinds and "recovery" in kinds
    assert trace.summary()["fault_kinds"]["crash"] == 1


def test_executor_default_reassign_used_without_overlap_frontend():
    host = _host()
    killing = kill_and_label(host)
    assignment = assign_databases(killing, min_copies=2)
    res = GreedyExecutor(
        host, assignment, CounterProgram(), STEPS,
        faults=FaultPlan().crash(10, 5),
    ).run()
    assert res.assignment.m < assignment.m
    assert res.stats.recoveries == 1


def test_faults_reject_dep_map_guests():
    from repro.core.ring import ring_dep_map

    host = HostArray.uniform(8)
    from repro.core.baselines import spread_assignment

    dep_map, _ = ring_dep_map(8)
    with pytest.raises(ValueError, match="dep_map"):
        GreedyExecutor(
            host, spread_assignment(8, 8), CounterProgram(), 4,
            dep_map=dep_map, faults=FaultPlan().crash(1, 2),
        )


def test_overlap_result_summary_plain_when_no_faults():
    host = _host()
    res = simulate_overlap(host, steps=STEPS)
    assert "m_surviving" not in res.summary()
    assert res.m_surviving == res.m


def test_chaos_property_verified_or_deadlock():
    """Any random fault schedule completes verified or deadlocks —
    never returns silently-wrong values (Hypothesis-style loop)."""
    host = HostArray.uniform(32)
    completed = deadlocked = 0
    for seed in range(12):
        plan = FaultPlan.random(
            host.n,
            seed=seed,
            horizon=60,
            node_crash_rate=0.15,
            link_outage_rate=0.1,
            jitter_rate=0.2,
            drop_rate=0.2,
            mean_outage=8,
        )
        try:
            res = simulate_overlap(
                host, steps=6, min_copies=2, faults=plan, verify=True
            )
            assert res.verified
            completed += 1
        except SimulationDeadlock:
            deadlocked += 1
    assert completed + deadlocked == 12
    assert completed >= 1  # the sweep isn't vacuous


def test_simulation_deadlock_carries_diagnostics():
    exc = SimulationDeadlock(
        "boom",
        pending=[(0, 1, 0), (1, 2, 3)],
        undelivered=[(2, 5, 1)],
        fault_log=["t=4 crash node 2"],
    )
    msg = str(exc)
    assert "boom" in msg
    assert "2 stuck replicas" in msg
    assert "1 stalled streams" in msg
    assert "fault events" in msg
    assert exc.pending == [(0, 1, 0), (1, 2, 3)]
    assert exc.undelivered == [(2, 5, 1)]
    assert exc.fault_log == ["t=4 crash node 2"]
    bare = SimulationDeadlock("quiet")
    assert str(bare) == "quiet"
    assert bare.pending == [] and bare.fault_log == []
