"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, probe, tracing, workloads  # noqa: E402
from perfbench.layers import span_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())

#: workload class -> the attributes that shrink it to a smoke size
TINY = {
    workloads.SweepCold: {"GRID": 16, "WARM": 4},
    workloads.DeltaEdits: {"PER_KIND": 1, "SAMPLE": 2},
    workloads.ServiceZipf: {"RATE": 60.0, "UNIVERSE": 400, "SEEDED": 32, "SAMPLE": 4},
}


def _span(sid, name, start, end, parent=None, attrs=None):
    return [sid, name, start, end, parent, None, attrs]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("a", "root", 0.0, 10.0),
        _span("b", "child", 1.0, 4.0, "a"),
        _span("c", "child", 5.0, 9.0, "a"),
        _span("d", "grandchild", 2.0, 3.0, "b"),
        # a child reaching past its parent only covers the overlap
        _span("e", "late", 8.5, 12.0, "c"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"a": 3.0, "b": 2.0, "c": 3.5, "d": 1.0, "e": 3.5})
    rec = tracing.reconcile(spans, selfs)
    assert rec["roots"] == 1
    assert rec["self_s"] == pytest.approx(13.0)
    assert rec["max_rel_err"] == pytest.approx(0.3)


def test_overlapping_children_are_counted_once():
    spans = [
        _span("a", "root", 0.0, 10.0),
        _span("b", "x", 1.0, 6.0, "a"),
        _span("c", "x", 4.0, 8.0, "a"),
    ]
    assert tracing.self_times(spans)["a"] == pytest.approx(3.0)


def test_executor_work_is_counted_at_the_innermost_span():
    counts = {
        "makespan": 5, "pebbles": 100, "redundant": 20, "messages": 7,
        "pebble_hops": 9, "retries": 0, "cancelled_messages": 0,
        "raced_wins": 0, "raced_losses": 0,
    }
    spans = [
        _span("f", "FaultedDenseExecutor.run", 0.0, 2.0, None, counts),
        _span("d", "DenseExecutor.run", 0.5, 1.5, "f", counts),
    ]
    metrics, _ = span_metrics(spans)
    assert metrics["kernel.dense_pebbles"] == 100
    assert metrics["sim.pebbles"] == 100
    assert metrics["kernel.dense_ms"] == pytest.approx(1000.0)
    assert metrics["kernel.faulted_ms"] == pytest.approx(1000.0)
    assert metrics["sim.redundancy_factor"] == pytest.approx(1.25)


def test_seeded_inputs_are_deterministic():
    assert inputs.sweep_grid(3, 40) == inputs.sweep_grid(3, 40)
    assert inputs.sweep_grid(3, 40) != inputs.sweep_grid(4, 40)
    kinds = [c["kind"] for c in inputs.sweep_grid(3, 240)]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "faulted": 30, "racing": 30, "ring": 36, "mesh": 24, "overlap": 120,
    }

    due = inputs.poisson_schedule(5, 100.0, 3.0)
    assert due == inputs.poisson_schedule(5, 100.0, 3.0)
    assert due != inputs.poisson_schedule(6, 100.0, 3.0)
    assert len(due) == 300 and due == sorted(due) and 0.0 <= due[0] and due[-1] < 3.0

    bursts = inputs.burst_times(5, 4, 3.0)
    assert bursts == inputs.burst_times(5, 4, 3.0) != inputs.burst_times(6, 4, 3.0)
    assert len(bursts) == 4 and bursts == sorted(bursts)

    picks = inputs.zipf_picks(5, 2000, 1000, 1.2)
    assert picks == inputs.zipf_picks(5, 2000, 1000, 1.2)
    assert picks != inputs.zipf_picks(6, 2000, 1000, 1.2)
    assert picks.count(0) > picks.count(1) > picks.count(10)
    # the same keys as often for every seed, in another order
    assert sorted(picks) == sorted(inputs.zipf_picks(6, 2000, 1000, 1.2))

    bases, edits = inputs.edit_stream(5, 2)
    assert (bases, edits) == inputs.edit_stream(5, 2)
    assert edits != inputs.edit_stream(6, 2)[1]
    assert len(edits) == len(bases) * 3 * 2
    assert len({json.dumps(e, sort_keys=True) for e in edits}) == len(edits)


def test_uninstall_restores_names_bound_while_installed():
    # x5 and the service tasks bind simulate_overlap at import; when the
    # tracer is what imports them, they must still end up unpatched.
    code = (
        "from perfbench.tracing import Tracer\n"
        "t = Tracer(); t.install(); t.uninstall()\n"
        "import repro.core.overlap as o, repro.experiments.x5 as x, repro.service.tasks as s\n"
        "assert x.simulate_overlap is o.simulate_overlap is s.simulate_overlap\n"
        "assert not hasattr(o.simulate_overlap, '__wrapped__')\n"
    )
    env_path = f"{ROOT / 'src'}:{ROOT}"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": env_path}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cpu_times_of_other_processes_are_read_from_proc():
    end = time.process_time() + 0.2
    while time.process_time() < end:
        pass
    # this process read through /proc agrees with its own clock, to
    # the clock tick
    now = workloads.cpu_s([os.getpid()])
    assert now[os.getpid()] == pytest.approx(now[0], abs=0.05)
    assert workloads.cpu_used({0: 1.0}, {0: 1.5, 42: 0.25}) == pytest.approx(0.75)


def test_probe_rescales_cpu_time_toward_the_reference_speed():
    ref = probe.REF_S
    assert probe.ref_cpu_s(2.0, ref, ref) == pytest.approx(2.0)
    # a host at a quarter of the reference speed
    slow = probe.ref_cpu_s(2.0, 2 * ref, 8 * ref)
    assert slow == pytest.approx(2.0 * 0.25**probe.ELASTICITY)
    with probe.Prober(2) as prober:
        procs = list(prober.procs)
        assert prober(times=1) > 0
    assert all(p.returncode == 0 for p in procs)


def test_a_missing_trace_target_fails_the_run():
    from perfbench.run import trace_failures

    out = {"reconcile": {"max_rel_err": 0.0}, "expect": [], "missing": ["repro.runner._match_delta"]}
    assert trace_failures(out) == ["trace target missing from the program: repro.runner._match_delta"]


def test_design_names_every_per_layer_metric():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(DESIGN["per_layer"])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(DESIGN["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(DESIGN["workloads"])
    assert set(workloads.WORKLOADS) == set(DESIGN["workloads"])


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload shrunk to a smoke size: one timed and one traced run."""
    out = {}
    try:
        for cls, attrs in TINY.items():
            tiny = type(cls.__name__, (cls,), attrs)
            work = tmp_path_factory.mktemp(cls.name)
            wl = tiny(seed=11, seconds=1.5, work=work)
            wl.setup()
            out[cls.name] = (wl.measure(), wl.trace())
            wl.close()
    finally:
        workloads.stop_pool()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(tiny_runs, name):
    measured, traced = tiny_runs[name]
    assert measured["failures"] == []
    for metric in ("ops_per_ref_cpu_s", "peak_rss_mb"):
        assert measured["metrics"][metric] > 0
    assert measured["failed"] == traced["failed"] == 0
    assert traced["failures"] == []
    assert traced["missing"] == []
    assert traced["reconcile"]["max_rel_err"] < 0.01
    for what, got, want in traced["expect"]:
        assert got == want, what


def test_every_per_layer_metric_is_produced(tiny_runs):
    produced = set()
    for _, traced in tiny_runs.values():
        produced |= {k for k, v in traced["metrics"].items() if v}
    # 0 in a healthy run
    may_be_zero = {"service.shed", "trace.reconcile_err"}
    assert {m["name"] for m in SPEC["per_layer"]} - produced <= may_be_zero
