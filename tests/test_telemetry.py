"""Telemetry layer: metrics timelines, spans, Chrome export, profiling.

The contract under test is threefold:

* **reconciliation** — a :class:`MetricsTimeline` fed by either
  executor sums exactly to the run's :class:`SimStats` (checked over
  e1/e3/r1-shaped configs, fault-free and faulty);
* **non-perturbation** — attaching telemetry never changes a run's
  results (stats, digests) for either engine, and the dense and greedy
  tiers produce *identical* timelines on fault-free runs;
* **export** — the Chrome ``trace_event`` JSON is valid, timestamp-
  monotone, and its counter tracks sum back to the SimStats aggregates.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.overlap import simulate_overlap
from repro.machine.host import HostArray
from repro.netsim.faults import FaultPlan
from repro.runner import SweepRunner
from repro.telemetry import (
    MetricsTimeline,
    SpanLog,
    SweepProfile,
    chrome_events,
    format_profile,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.topology.delays import scale_to_average, uniform_delays

# ---------------------------------------------------------------------------
# helpers


def _random_host(n: int, d_ave: float, seed: int = 0) -> HostArray:
    """e1-style host: random link delays scaled to a target average."""
    rng = np.random.default_rng(seed)
    return HostArray(scale_to_average(uniform_delays(n - 1, rng, 1, 8), d_ave))


def _uniform_host(n: int, d: int) -> HostArray:
    """e3-style host: every link has delay exactly d."""
    return HostArray([d] * (n - 1))


def _fault_plan(n: int) -> FaultPlan:
    """r1-style random plan known to exercise crashes, drops, retries
    and mid-run recoveries within a short run."""
    return FaultPlan.random(
        n, seed=0, horizon=90, node_crash_rate=0.05, drop_rate=0.05
    )


def _run(host, steps, block=2, engine="greedy", faults=None, telemetry=None):
    return simulate_overlap(
        host,
        steps=steps,
        block=block,
        engine=engine,
        faults=faults,
        min_copies=2 if faults is not None else None,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# MetricsTimeline unit behaviour


class TestTimelineUnit:
    def test_pebble_and_redundant_counting(self):
        tl = MetricsTimeline()
        tl.pebble(1, 0, 0, 0)
        tl.pebble(1, 1, 0, 1)
        tl.pebble(3, 2, 0, 0)  # recomputation of (0, 0)
        assert tl.series("pebbles") == [0, 2, 0, 1]
        assert tl.series("redundant") == [0, 0, 0, 1]
        assert tl.positions == {0, 1, 2}

    def test_in_flight_tracks_injections_minus_arrivals(self):
        tl = MetricsTimeline()
        tl.send(1, 4)  # occupies steps 1..3 (arrives at 4)
        tl.send(2, 4)
        assert tl.series("in_flight") == [0, 1, 2, 2, 0]

    def test_stalled_counts_idle_known_positions(self):
        tl = MetricsTimeline()
        tl.pebble(1, 0, 0, 0)
        tl.pebble(1, 1, 1, 0)
        tl.pebble(3, 0, 0, 1)
        # t=1: both busy; t=2: both idle; t=3: one of two busy.
        assert tl.series("stalled") == [0, 0, 2, 1]

    def test_unknown_series_rejected(self):
        tl = MetricsTimeline()
        with pytest.raises(KeyError):
            tl.series("nope")
        with pytest.raises(KeyError):
            tl.series("meta")  # attribute exists but is not a series

    def test_reconcile_raises_with_counter_name(self):
        from repro.netsim.stats import SimStats

        tl = MetricsTimeline()
        tl.pebble(1, 0, 0, 0)
        with pytest.raises(ValueError, match="pebbles"):
            tl.reconcile(SimStats(pebbles=2))

    def test_empty_timeline_renders(self):
        tl = MetricsTimeline()
        assert tl.ascii_timeline() == "(empty timeline)"
        assert tl.horizon == 0
        assert tl.summary()["mean_utilization"] == 0.0

    def test_as_dict_is_json_ready(self):
        tl = MetricsTimeline()
        tl.pebble(1, 0, 0, 0)
        tl.fault(2, "crash", "node 0")
        tl.spans.begin("epoch", 0, track="epochs")
        tl.spans.end(3)
        json.dumps(tl.as_dict())  # must not raise


# ---------------------------------------------------------------------------
# spans


class TestSpans:
    def test_begin_end_nesting(self):
        log = SpanLog()
        log.begin("outer", 0)
        log.begin("inner", 1)
        assert log.end(2).name == "inner"
        assert log.end(5).name == "outer"
        assert [s.duration for s in log] == [5, 1]

    def test_end_clamps_to_start(self):
        # An epoch span opened at the end of a restart window can be
        # closed by a *second* crash processed at an earlier timestamp;
        # it must report zero duration, never negative.
        log = SpanLog()
        log.begin("epoch", 64)
        span = log.end(6)
        assert span.end == span.start == 64
        assert span.duration == 0

    def test_close_all_and_named(self):
        log = SpanLog()
        log.begin("a", 0)
        log.begin("b", 1)
        log.close_all(9)
        assert all(s.end == 9 for s in log)
        assert len(log.named("a")) == 1

    def test_end_without_open_span_rejected(self):
        with pytest.raises(ValueError):
            SpanLog().end(1)

    def test_context_manager_uses_clock(self):
        ticks = iter(range(10))
        log = SpanLog(clock=lambda: next(ticks))
        with log.span("chunk", worker=3):
            pass
        (span,) = log.spans
        assert (span.start, span.end) == (0, 1)
        assert span.args == {"worker": 3}


# ---------------------------------------------------------------------------
# executor integration: reconciliation


class TestReconciliation:
    @pytest.mark.parametrize("engine", ["greedy", "dense"])
    def test_e1_shape_random_delays(self, engine):
        tl = MetricsTimeline()
        res = _run(_random_host(48, 4.0), steps=12, engine=engine, telemetry=tl)
        totals = tl.reconcile(res.exec_result.stats)
        assert totals["pebbles"] > 0 and totals["hops"] > 0
        assert tl.meta["engine"] == engine

    @pytest.mark.parametrize("engine", ["greedy", "dense"])
    def test_e3_shape_uniform_delays(self, engine):
        tl = MetricsTimeline()
        res = _run(_uniform_host(40, 4), steps=10, block=4, engine=engine, telemetry=tl)
        tl.reconcile(res.exec_result.stats)

    def test_r1_shape_faulty_run(self):
        host = _random_host(64, 3.0, seed=1)
        tl = MetricsTimeline()
        res = _run(host, steps=16, engine="greedy", faults=_fault_plan(64), telemetry=tl)
        stats = res.exec_result.stats
        # The plan must actually bite for this test to mean anything.
        assert stats.recoveries > 0
        assert stats.lost_messages > 0
        totals = tl.reconcile(stats)
        assert totals["lost"] == stats.lost_messages
        assert any(k == "recovery" for _t, k, _d in tl.faults)
        # Epoch spans: one per epoch plus one recovery span per restart.
        assert len(tl.spans.named("epoch")) == stats.recoveries + 1
        assert len(tl.spans.named("recovery")) == stats.recoveries

    @pytest.mark.parametrize("engine", ["greedy", "dense"])
    @pytest.mark.parametrize("faulted", [False, True])
    def test_zero_step_run_names_its_engine(self, engine, faulted):
        # All four paths -- greedy and dense, fault-free and faulted --
        # stamp their engine on a run that computes no pebble.
        from repro.core.assignment import assign_databases
        from repro.core.dense import DenseExecutor, build_executor
        from repro.core.dense_faults import FaultedDenseExecutor
        from repro.core.executor import GreedyExecutor
        from repro.core.killing import kill_and_label
        from repro.machine.programs import CounterProgram

        host = _random_host(64, 3.0, seed=1)
        asg = assign_databases(kill_and_label(host), 2, min_copies=2)
        tl = MetricsTimeline()
        ex = build_executor(
            engine, host, asg, CounterProgram(), 0,
            faults=_fault_plan(64) if faulted else None, telemetry=tl,
        )
        expected = {
            ("greedy", False): GreedyExecutor,
            ("greedy", True): GreedyExecutor,
            ("dense", False): DenseExecutor,
            ("dense", True): FaultedDenseExecutor,
        }[engine, faulted]
        assert type(ex) is expected
        if type(ex) is FaultedDenseExecutor:
            assert not ex._fault_tables.is_effect_free
        res = ex.run()
        assert res.stats.pebbles == 0
        assert tl.meta == {"engine": engine}

    def test_auto_engine_routes_telemetry(self):
        tl = MetricsTimeline()
        res = _run(_random_host(32, 3.0), steps=8, engine="auto", telemetry=tl)
        assert res.engine == "dense"  # telemetry must not force a fallback
        assert res.telemetry is tl
        tl.reconcile(res.exec_result.stats)


# ---------------------------------------------------------------------------
# executor integration: non-perturbation and tier identity


class TestNonPerturbation:
    @pytest.mark.parametrize("engine", ["greedy", "dense"])
    def test_results_bit_identical_with_and_without_telemetry(self, engine):
        host = _random_host(48, 4.0, seed=2)
        plain = _run(host, steps=12, engine=engine)
        timed = _run(host, steps=12, engine=engine, telemetry=MetricsTimeline())
        assert plain.exec_result.stats.as_dict() == timed.exec_result.stats.as_dict()
        assert plain.exec_result.value_digests == timed.exec_result.value_digests

    def test_faulty_results_identical_with_and_without_telemetry(self):
        host = _random_host(64, 3.0, seed=1)
        plain = _run(host, steps=16, faults=_fault_plan(64))
        timed = _run(
            host, steps=16, faults=_fault_plan(64), telemetry=MetricsTimeline()
        )
        assert plain.exec_result.stats.as_dict() == timed.exec_result.stats.as_dict()
        assert plain.exec_result.value_digests == timed.exec_result.value_digests

    def test_dense_and_greedy_timelines_identical(self):
        # Stronger than both reconciling to the same stats: the per-step
        # series themselves must match, including injection slots.
        host = _random_host(48, 4.0, seed=3)
        tl_g, tl_d = MetricsTimeline(), MetricsTimeline()
        _run(host, steps=12, engine="greedy", telemetry=tl_g)
        _run(host, steps=12, engine="dense", telemetry=tl_d)
        assert tl_g.totals() == tl_d.totals()
        for name in ("pebbles", "redundant", "messages", "hops",
                     "deliveries", "in_flight", "stalled"):
            assert tl_g.series(name) == tl_d.series(name), name
        assert tl_g.positions == tl_d.positions


# ---------------------------------------------------------------------------
# Chrome trace export


class TestChromeExport:
    def _timeline_and_trace(self):
        from repro.core.assignment import assign_databases
        from repro.core.executor import GreedyExecutor
        from repro.core.killing import kill_and_label
        from repro.machine.programs import get_program
        from repro.netsim.trace import Trace

        host = _random_host(32, 3.0, seed=4)
        killing = kill_and_label(host)
        assignment = assign_databases(killing, block=2)
        trace, tl = Trace(), MetricsTimeline()
        result = GreedyExecutor(
            host,
            assignment,
            get_program("counter"),
            steps=8,
            trace=trace,
            telemetry=tl,
        ).run()
        return tl, trace, result

    def test_document_round_trips_as_json(self, tmp_path):
        tl, trace, _res = self._timeline_and_trace()
        path = tmp_path / "run.json"
        doc = write_chrome_trace(path, timeline=tl, trace=trace, label="test")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["traceEvents"]

    def test_timestamps_monotone_after_metadata(self):
        tl, trace, _res = self._timeline_and_trace()
        events = chrome_events(timeline=tl, trace=trace)
        body = [e for e in events if e["ph"] != "M"]
        assert body, "export produced no body events"
        assert all(
            a["ts"] <= b["ts"] for a, b in zip(body, body[1:])
        ), "body timestamps must be non-decreasing"
        # Metadata first, and every event shape Perfetto requires.
        assert events[0]["ph"] == "M"
        for e in events:
            assert {"ph", "name", "pid", "tid", "ts"} <= set(e)

    def test_counters_sum_to_stats(self):
        tl, trace, res = self._timeline_and_trace()
        events = chrome_events(timeline=tl, trace=trace)
        stats = res.stats

        def counter_sum(track, key):
            return sum(
                e["args"].get(key, 0)
                for e in events
                if e["ph"] == "C" and e["name"] == track
            )

        assert counter_sum("computation", "pebbles") == stats.pebbles
        assert counter_sum("computation", "redundant") == stats.redundant
        assert counter_sum("message flow", "messages") == stats.messages
        assert counter_sum("message flow", "lost") == stats.lost_messages
        # One "X" pebble event per pebble computed.
        pebble_events = [e for e in events if e.get("cat") == "pebble"]
        assert len(pebble_events) == stats.pebbles

    def test_span_and_fault_events_exported(self):
        host = _random_host(64, 3.0, seed=1)
        tl = MetricsTimeline()
        _run(host, steps=16, faults=_fault_plan(64), telemetry=tl)
        events = chrome_events(timeline=tl)
        spans = [e for e in events if e.get("cat") == "span"]
        faults = [e for e in events if e.get("cat") == "fault"]
        assert spans and faults
        assert all(e["dur"] >= 0 for e in spans)
        assert {e["name"] for e in spans} >= {"epoch", "recovery"}

    def test_trace_to_chrome_events_delegates(self):
        _tl, trace, res = self._timeline_and_trace()
        events = trace.to_chrome_events(label="t")
        assert sum(1 for e in events if e["ph"] == "X") == res.stats.pebbles

    def test_timeline_only_document(self):
        tl = MetricsTimeline()
        tl.pebble(1, 0, 0, 0)
        doc = to_chrome_trace(timeline=tl)
        assert any(e["ph"] == "C" for e in doc["traceEvents"])


# ---------------------------------------------------------------------------
# sweep profiling


def _square(cfg: dict) -> dict:
    """Module-level so pool workers can import it by name."""
    return {"value": cfg["x"] * cfg["x"]}


class TestSweepProfiling:
    def test_profile_off_by_default(self):
        assert SweepRunner().profile is None

    def test_inline_profile_records_compute_and_maps(self):
        runner = SweepRunner(profile=True)
        out = runner.map(_square, [{"x": x} for x in range(4)])
        assert [r["value"] for r in out] == [0, 1, 4, 9]
        prof = runner.profile
        assert len(prof.maps) == 1
        assert prof.maps[0]["configs"] == 4
        assert prof.compute_s > 0
        assert prof.chunks == []  # inline path: no worker chunks

    def test_parallel_profile_attributes_chunks_to_pids(self):
        runner = SweepRunner(workers=2, profile=True)
        out = runner.map(_square, [{"x": x} for x in range(8)])
        assert [r["value"] for r in out] == [x * x for x in range(8)]
        prof = runner.profile
        assert prof.chunks
        assert sum(c["configs"] for c in prof.chunks) == 8
        per = prof.per_worker()
        assert 1 <= len(per) <= 2
        assert all(agg["wall_s"] >= 0 for agg in per.values())

    def test_cache_hits_recorded(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path, profile=True)
        configs = [{"x": x} for x in range(3)]
        runner.map(_square, configs)
        runner.map(_square, configs)
        assert runner.profile.cache_hits == 3
        assert runner.profile.cache_misses == 3

    def test_results_identical_with_and_without_profile(self, tmp_path):
        configs = [{"x": x} for x in range(5)]
        plain = SweepRunner(workers=2).map(_square, configs)
        profiled = SweepRunner(workers=2, profile=True).map(_square, configs)
        assert json.dumps(plain) == json.dumps(profiled)

    def test_as_dict_round_trips_as_json(self):
        runner = SweepRunner(profile=True)
        runner.map(_square, [{"x": 1}])
        d = runner.profile.as_dict()
        assert json.loads(json.dumps(d)) == d

    def test_format_profile_accepts_both_forms(self):
        prof = SweepProfile()
        prof.record_map(4, 0.5, workers=2, chunk_size=2, pool_reused=True)
        prof.record_chunk(111, 2, 0.2)
        prof.record_chunk(222, 2, 0.25)
        prof.record_cache(3, 1, 0.001)
        for form in (prof, prof.as_dict()):
            text = format_profile(form)
            assert "sweep profile: 1 sweep(s), 4 config(s)" in text
            assert "cache: 3 hit / 1 recompute" in text
            assert "pid 111" in text and "pid 222" in text

    def test_run_experiment_attaches_profile_dict(self, tmp_path):
        from repro.experiments import run_experiment

        res = run_experiment("e3", quick=True, cache_dir=tmp_path, profile=True)
        assert isinstance(res.profile, dict)
        assert res.profile["maps"]
        assert res.profile["cache"]["misses"] > 0
        # And off by default:
        res2 = run_experiment("e3", quick=True, cache_dir=tmp_path)
        assert res2.profile is None
        assert res.rows == res2.rows
