"""Property-based executor checks (hypothesis): any valid contiguous
assignment on any host simulates the guest bit-exactly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment, assign_databases
from repro.core.executor import GreedyExecutor, SimulationDeadlock, run_assignment
from repro.core.killing import kill_and_label
from repro.core.racing import ExecPolicy
from repro.core.verify import verify_execution
from repro.machine.guest import GuestArray
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram, TokenProgram
from repro.netsim.faults import FaultPlan
from repro.netsim.trace import Trace
from repro.telemetry.timeline import MetricsTimeline


@st.composite
def host_and_assignment(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    delays = draw(
        st.lists(
            st.integers(min_value=1, max_value=12), min_size=n - 1, max_size=n - 1
        )
    )
    m = draw(st.integers(min_value=n, max_value=2 * n + 2))
    # Build a random contiguous cover with overlaps: each position's
    # range starts no later than the previous end + 1.
    ranges = []
    lo = 1
    for p in range(n):
        remaining_positions = n - p
        max_width = m - lo + 1
        min_w = max(1, (m - lo + 1 + remaining_positions - 1) // remaining_positions)
        max_w = max(min_w, max(1, min(max_width, 2 * m // n + 2)))
        width = draw(st.integers(min_value=min_w, max_value=max_w))
        hi = min(m, lo + width - 1)
        if p == n - 1:
            hi = m
        ranges.append((lo, hi))
        # next start: anywhere from lo+1 to hi+1 (keeps coverage)
        lo = draw(st.integers(min_value=min(lo + 1, m), max_value=min(hi + 1, m)))
    return HostArray(delays), Assignment(ranges, m)


@given(host_and_assignment(), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_any_cover_simulates_exactly(ha, steps):
    host, asg = ha
    asg.validate()
    prog = CounterProgram()
    result = run_assignment(host, asg, prog, steps)
    ref = GuestArray(asg.m, prog).run_reference(steps)
    verify_execution(result, ref, prog)


@given(host_and_assignment())
@settings(max_examples=25, deadline=None)
def test_makespan_at_least_serial_bound(ha):
    """No execution can beat work / processors."""
    host, asg = ha
    steps = 4
    result = run_assignment(host, asg, CounterProgram(), steps)
    used = len(asg.used_positions())
    assert result.stats.makespan >= result.stats.pebbles / used


@given(host_and_assignment())
@settings(max_examples=25, deadline=None)
def test_makespan_at_least_steps(ha):
    """Rows are sequential: at least one step per guest row."""
    host, asg = ha
    steps = 5
    result = run_assignment(host, asg, CounterProgram(), steps)
    assert result.stats.makespan >= steps


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_uniform_one_to_one_closed_form(n, d, steps):
    """One column per processor on a uniform host has a known makespan:
    1 + (steps-1) * (d+1) — each later row waits one exchange."""
    host = HostArray.uniform(n, d)
    asg = Assignment([(i + 1, i + 1) for i in range(n)], n)
    result = run_assignment(host, asg, TokenProgram(), steps)
    expected = 1 + (steps - 1) * (d + 1) if steps >= 1 else 0
    assert result.stats.makespan == expected


@st.composite
def feature_product(draw):
    """One greedy config from {single, racing} x {no plan, random plan}
    x multicast x tie_seed x bandwidth on an OVERLAP assignment."""
    n = draw(st.integers(min_value=6, max_value=24))
    delays = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=n - 1, max_size=n - 1)
    )
    host = HostArray(delays)
    asg = assign_databases(
        kill_and_label(host), 1, min_copies=draw(st.integers(1, 2))
    )
    fanout = draw(st.sampled_from([1, 2, 3]))
    plan = None
    if draw(st.booleans()):
        plan = FaultPlan.random(
            n,
            seed=draw(st.integers(0, 10_000)),
            horizon=draw(st.integers(8, 80)),
            node_crash_rate=0.1,
            link_outage_rate=0.1,
            jitter_rate=0.2,
            drop_rate=0.2,
        )
    kwargs = dict(
        steps=draw(st.integers(1, 8)),
        bandwidth=draw(st.integers(1, 2)),
        faults=plan,
        multicast=fanout == 1 and draw(st.booleans()),
        tie_seed=draw(st.none() | st.integers(0, 99)),
        exec_policy=ExecPolicy(racing=True, fanout=fanout) if fanout > 1 else None,
    )
    return host, asg, kwargs


def _greedy_outcome(host, asg, kwargs, telemetry=None, trace=None):
    try:
        res = GreedyExecutor(
            host, asg, CounterProgram(), telemetry=telemetry, trace=trace, **kwargs
        ).run()
    except SimulationDeadlock as exc:
        return "dead", (str(exc), exc.pending, exc.undelivered, exc.fault_log), None
    replicas = {
        key: (rep.column, rep.version, rep.digest, rep.state)
        for key, rep in res.replicas.items()
    }
    return "ok", (res.stats.as_dict(), res.value_digests, replicas), res.stats


@given(feature_product())
@settings(max_examples=60, deadline=None)
def test_instruments_never_change_the_run(config):
    """Attaching a timeline and a trace only observes the one greedy
    loop, whatever mix of racing, faults, multicast, scheduling jitter
    and bandwidth it runs; the timeline reconciles with the stats."""
    host, asg, kwargs = config
    bare = _greedy_outcome(host, asg, kwargs)
    tl = MetricsTimeline()
    watched = _greedy_outcome(host, asg, kwargs, telemetry=tl, trace=Trace())
    assert watched[:2] == bare[:2]
    if watched[0] == "ok":
        tl.reconcile(watched[2])
