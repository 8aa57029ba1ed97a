"""The three workloads: set-up, timed runs, traced runs and checks.

Each workload class takes the seed, the run length and a private work
directory.  :meth:`setup` does everything before timing starts;
:meth:`measure` runs the timed window with tracing off and returns the
end-to-end metrics; :meth:`trace` runs the same work once untraced and
once traced and returns the per-layer metrics.  Both return
``{"metrics", "attempted", "failures", ...}``: ``failures`` lists every
wrong or missing output, and any entry fails the run.  The checks run
outside the timed window.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import inputs, probe
from perfbench.layers import span_counts, span_metrics
from perfbench.tracing import NAME, PARENT_ID, REQUEST, Tracer

clock = time.perf_counter

#: clock ticks per second of the CPU times in ``/proc/<pid>/stat``
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: the timed window repeats the workload's fixed work (a pass over the
#: grid or the edit stream) until the window ends, and at least this
#: often; the metrics pool every repeat
MIN_REPEATS = 3

#: root spans a sweep worker records, one per config
FRONT_ENDS = ("simulate_overlap", "simulate_overlap_on_graph", "simulate_ring")


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pool_peak_rss_mb() -> float:
    """Summed peak resident set of the runner's live pool workers."""
    total = 0.0
    for pid in pool_pids():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return total


def pool_pids() -> list[int]:
    """Process ids of the runner's live pool workers."""
    from repro import runner

    return list(getattr(runner._pool, "_processes", None) or {})


def cpu_s(pids=()) -> dict:
    """CPU seconds (user + system) used so far by this process and by
    each process in ``pids``, keyed by pid (this process under 0).

    The timed metrics are CPU time rather than wall time: on a shared
    host a process waits for a CPU for as long as other tenants keep it
    busy, which wall time counts and CPU time does not; :mod:`probe`
    rescales it for the speed the CPU ran at.
    """
    out = {0: time.process_time()}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # utime and stime, fields 14 and 15 of proc(5)
        out[pid] = (int(fields[11]) + int(fields[12])) / CLK_TCK
    return out


def ref_rate(ops, cpus, probes, elasticity: float) -> float:
    """Median over repeats of operations per CPU-second rescaled toward
    the probe's reference speed; ``ops`` is a count per repeat or one
    for all, and ``probes`` holds one more probe than there are
    repeats."""
    if isinstance(ops, int):
        ops = [ops] * len(cpus)
    return statistics.median(
        n / probe.ref_cpu_s(c, probes[k], probes[k + 1], elasticity)
        for k, (n, c) in enumerate(zip(ops, cpus))
    )


def cpu_used(before: dict, after: dict) -> float:
    """CPU seconds used between two :func:`cpu_s` readings."""
    return sum(t - before.get(pid, 0.0) for pid, t in after.items())


def stop_pool() -> None:
    """Shut the runner's worker pool down and wait for its processes."""
    from repro import runner

    if runner._pool is not None:
        runner._pool.shutdown(wait=True)
    if runner._threads is not None:
        runner._threads.shutdown(wait=True)
    runner.shutdown_pool()


class Workload:
    name = ""
    #: untraced/traced pass pairs of a traced closed-loop run; the
    #: per-layer numbers come from the last traced pass
    TRACE_PAIRS = 2

    #: probe processes run at once: as many as the workload keeps busy
    LANES = 1
    #: how much of the probe's slowdown the workload's CPU time follows
    ELASTICITY = probe.ELASTICITY
    #: loops per probe
    PROBE_TIMES = probe.TIMES

    def __init__(self, seed: int, seconds: float, work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self._dirs = itertools.count()
        self._prober = None

    def probe(self) -> float:
        """The host-speed probe (see :mod:`perfbench.probe`)."""
        if self._prober is None:
            self._prober = probe.Prober(self.LANES)
        return self._prober(self.PROBE_TIMES)

    def fresh_dir(self, copy_of: Path | None = None) -> Path:
        path = self.work / f"pass{next(self._dirs)}"
        if copy_of is not None:
            shutil.copytree(copy_of, path)
        return path

    def close(self) -> None:
        if self._prober is not None:
            self._prober.close()
        stop_pool()


class SweepCold(Workload):
    """``SweepRunner.map`` over a seeded grid into an empty cache."""

    name = "sweep-cold"
    WORKERS = 2
    LANES = WORKERS
    #: all simulator compute on both CPUs, like the two probe lanes: on
    #: five seeds the runs' mean log CPU rate followed the mean log probe
    #: with slope 0.98 (correlation 0.97), and the spread over seeds was
    #: 0.20 raw, 0.10 at elasticity 0.5 and 0.06 at 1
    ELASTICITY = 1.0
    GRID = 240
    WARM = 16

    def setup(self) -> None:
        from repro.runner import SweepRunner  # noqa: F401 - import is set-up

        self.grid = inputs.sweep_grid(self.seed, self.GRID)
        # Spawn the pool and let every worker import and warm the
        # kernels on configs that are not part of the timed grid.
        self._map([dict(c, warm=1) for c in self.grid[: self.WARM]])
        self._sims = None

    def _map(self, configs, profile=False):
        from repro.runner import SweepRunner

        from perfbench.tasks import sweep_point

        cache = self.fresh_dir()
        runner = SweepRunner(workers=self.WORKERS, cache_dir=cache, profile=profile)
        pids = pool_pids()
        cpu0 = cpu_s(pids)
        t0 = clock()
        rows = runner.map(sweep_point, configs)
        wall = clock() - t0
        cpu = cpu_used(cpu0, cpu_s(set(pids) | set(pool_pids())))
        shutil.rmtree(cache, ignore_errors=True)
        return rows, wall, cpu, runner

    def _check(self, rows, failures) -> int:
        """Record what is wrong with one pass; returns its failed configs."""
        sims, bad = {}, set()
        for row in rows:
            if not row["verified"]:
                failures.append(f"config {row['id']} ({row['kind']}) not verified")
                bad.add(row["id"])
            sims[row["id"]] = {k: v for k, v in row.items() if k not in ("wall_ms", "spans")}
        if self._sims is None:
            self._sims = sims
        elif sims != self._sims:
            diff = sorted(i for i in sims if sims[i] != self._sims.get(i))
            failures.extend(f"config {i}: simulated counts differ between repeats" for i in diff)
            bad.update(diff)
        return len(bad)

    def measure(self) -> dict:
        walls, cpus, lat, failures, failed = [], [], [], [], 0
        end = clock() + self.seconds
        probes = [self.probe()]
        while len(walls) < MIN_REPEATS or clock() < end:
            rows, wall, cpu, _ = self._map(self.grid)
            probes.append(self.probe())
            walls.append(wall)
            cpus.append(cpu)
            lat += [r["wall_ms"] for r in rows]
            failed += self._check(rows, failures)
        return {
            "metrics": {
                "ops_per_ref_cpu_s": ref_rate(self.GRID, cpus, probes, self.ELASTICITY),
                "peak_rss_mb": own_peak_rss_mb() + pool_peak_rss_mb(),
            },
            "attempted": len(lat),
            "failed": failed,
            "failures": failures,
            "detail": {
                "passes": len(walls),
                "samples": len(lat),
                "pass_walls_s": walls,
                "pass_cpu_s": cpus,
                "probe_cpu_s": probes,
                "ops_per_cpu_s": statistics.median(self.GRID / c for c in cpus),
                "throughput_per_s": len(lat) / sum(walls),
                "p50_ms": pct(lat, 50),
                "p95_ms": pct(lat, 95),
            },
        }

    def trace(self) -> dict:
        failures, walls_u, cpus_u, cpus_t, lat, failed = [], [], [], [], [], 0
        probes = [self.probe()]
        for _ in range(self.TRACE_PAIRS):
            rows, wall, cpu, _ = self._map(self.grid, profile=True)
            failed += self._check(rows, failures)
            walls_u.append(wall)
            cpus_u.append(cpu)
            lat += [r["wall_ms"] for r in rows]
            tracer = Tracer()
            tracer.install()
            try:
                rows, wall, cpu, runner = self._map(
                    [dict(c, trace=1) for c in self.grid], profile=True
                )
            finally:
                tracer.uninstall()
            cpus_t.append(cpu)
            failed += self._check(rows, failures)
        probes.append(self.probe())
        spans = tracer.spans + [s for r in rows for s in r.pop("spans")]
        metrics, rec = span_metrics(spans)
        prof = runner.profile
        counts = span_counts(spans)
        roots = sum(
            1 for s in spans if s[PARENT_ID] is None and s[NAME] in FRONT_ENDS
        )
        expect = [
            ("worker front-end roots", roots, prof.cache_misses),
            ("SweepCache.get spans", counts.get("SweepCache.get", 0), self.GRID),
            ("SweepCache.put spans", counts.get("SweepCache.put", 0), self.GRID),
            ("sim.pebbles vs rows", metrics["sim.pebbles"], sum(r["pebbles"] for r in rows)),
        ]
        metrics.update(
            {
                "runner.worker_busy_frac": prof.compute_s / (self.WORKERS * wall),
                "latency.p50_ms": pct(lat, 50),
                "latency.p95_ms": pct(lat, 95),
                "wall.throughput_per_s": len(lat) / sum(walls_u),
                "cpu.ops_per_s": statistics.median(self.GRID / c for c in cpus_u),
                "host.probe_ms": 1e3 * statistics.median(probes),
                "trace.overhead_frac": statistics.median(cpus_t) / statistics.median(cpus_u) - 1.0,
            }
        )
        return {
            "metrics": metrics,
            "attempted": 2 * self.TRACE_PAIRS * self.GRID,
            "failed": failed,
            "failures": failures,
            "expect": expect,
            "reconcile": rec,
            "spans": spans,
            "missing": tracer.missing,
        }


class _StepClock:
    """A progress stream that keeps the time each config finished.

    ``SweepRunner(progress=True, stream=...)`` flushes its stream once
    per finished config, so the gaps between flushes are the per-config
    times inside one ``map`` call.
    """

    def __init__(self) -> None:
        self.times: list[float] = []

    def write(self, text: str) -> None:
        pass

    def flush(self) -> None:
        self.times.append(clock())


class DeltaEdits(Workload):
    """One-knob edits of cached ``x5`` runs, mapped in one call with
    delta on, as ``x5.run`` maps its edit grid."""

    name = "delta-edits"
    PER_KIND = 3
    SAMPLE = 6
    #: a pass takes about a second, so more pairs steady the overhead
    TRACE_PAIRS = 6

    def setup(self) -> None:
        from repro.experiments.x5 import _edit_point
        from repro.runner import SweepRunner

        self.bases, self.edits = inputs.edit_stream(self.seed, self.PER_KIND)
        self.seeded = self.work / "seeded"
        seeder = SweepRunner(cache_dir=self.seeded)
        for base in self.bases:
            seeder.map(_edit_point, [base])
        self._rows = None

    def _pass(self, profile=False):
        from repro.experiments.x5 import _edit_point
        from repro.runner import SweepRunner

        # A pristine copy of the seeded cache per pass: an edit writes
        # its merged entry back, and a repeat must replay, not hit.
        cache = self.fresh_dir(copy_of=self.seeded)
        steps = _StepClock()
        runner = SweepRunner(cache_dir=cache, profile=profile, progress=True, stream=steps)
        cpu0 = time.process_time()
        t0 = clock()
        rows = runner.map(_edit_point, self.edits)
        wall = clock() - t0
        cpu = time.process_time() - cpu0
        shutil.rmtree(cache, ignore_errors=True)
        # The first gap also holds the keying, cache lookups and delta
        # matching of the whole stream; the gaps sum to the map's wall.
        lat = np.diff([t0] + steps.times).tolist()
        return {
            "rows": rows,
            "wall": wall,
            "cpu": cpu,
            "lat": lat,
            "replays": runner.last_delta_hits,
            "fallbacks": runner.last_delta_fallbacks,
            "runner": runner,
        }

    def _check(self, out, failures) -> int:
        """Record what is wrong with one pass; returns its failed edits."""
        if len(out["lat"]) != len(self.edits):
            failures.append(f"{len(out['lat'])} progress steps for {len(self.edits)} edits")
        if out["fallbacks"]:
            failures.append(f"{out['fallbacks']} delta fallbacks to a full recompute")
        diff = []
        if self._rows is None:
            self._rows = out["rows"]
        elif out["rows"] != self._rows:
            diff = [i for i, (a, b) in enumerate(zip(out["rows"], self._rows)) if a != b]
            failures.extend(f"edit {i}: rows differ between repeats" for i in diff)
        # a fallback's edit cannot be told apart, so one edit may count twice
        return min(len(self.edits), out["fallbacks"] + len(diff))

    def _check_full(self, failures) -> int:
        """A seeded sample of edits recomputed without delta; returns
        the failed edits."""
        from repro.experiments.x5 import _edit_point
        from repro.runner import SweepRunner

        rng = np.random.default_rng([self.seed, 6])
        idx = sorted(int(i) for i in rng.choice(len(self.edits), self.SAMPLE, replace=False))
        full = SweepRunner(delta=False).map(_edit_point, [self.edits[i] for i in idx])
        bad = 0
        for i, row in zip(idx, full):
            wrong = []
            if row != self._rows[i]:
                wrong.append(f"edit {i}: delta row differs from a full recompute")
            if not row["verified"]:
                wrong.append(f"edit {i}: not verified")
            failures.extend(wrong)
            bad += bool(wrong)
        return bad

    def measure(self) -> dict:
        passes, failures, failed = [], [], 0
        end = clock() + self.seconds
        probes = [self.probe()]
        while len(passes) < MIN_REPEATS or clock() < end:
            out = self._pass()
            probes.append(self.probe())
            passes.append(out)
            failed += self._check(out, failures)
        failed += self._check_full(failures)
        walls = [p["wall"] for p in passes]
        cpus = [p["cpu"] for p in passes]
        lat = [1e3 * t for p in passes for t in p["lat"]]
        return {
            "metrics": {
                "ops_per_ref_cpu_s": ref_rate(len(self.edits), cpus, probes, self.ELASTICITY),
                "peak_rss_mb": own_peak_rss_mb(),
            },
            "attempted": len(passes) * len(self.edits),
            "failed": failed,
            "failures": failures,
            "detail": {
                "passes": len(passes),
                "samples": len(lat),
                "pass_walls_s": walls,
                "pass_cpu_s": cpus,
                "probe_cpu_s": probes,
                "ops_per_cpu_s": statistics.median(len(self.edits) / c for c in cpus),
                "throughput_per_s": len(passes) * len(self.edits) / sum(walls),
                "p50_ms": pct(lat, 50),
                "p95_ms": pct(lat, 95),
                "replays": sum(p["replays"] for p in passes),
            },
        }

    def trace(self) -> dict:
        failures, plain, traced, failed = [], [], [], 0
        probes = [self.probe()]
        for _ in range(self.TRACE_PAIRS):
            plain.append(self._pass(profile=True))
            failed += self._check(plain[-1], failures)
            tracer = Tracer()
            tracer.install()
            try:
                out = self._pass(profile=True)
            finally:
                tracer.uninstall()
            traced.append(out)
            failed += self._check(out, failures)
        probes.append(self.probe())
        failed += self._check_full(failures)
        spans = tracer.spans
        metrics, rec = span_metrics(spans)
        prof = out["runner"].profile
        counts = span_counts(spans)
        attempts = prof.delta_hits + prof.delta_fallbacks
        expect = [
            ("SweepRunner.map spans", counts.get("SweepRunner.map", 0), 1),
            # each base's sidecar is decoded once per map call
            ("SweepCache.load_checkpoints spans", counts.get("SweepCache.load_checkpoints", 0), len(self.bases)),
            ("DenseExecutor.restore spans", counts.get("DenseExecutor.restore", 0), prof.delta_hits),
            ("SweepCache.put spans", counts.get("SweepCache.put", 0), len(self.edits)),
            ("profile delta attempts vs replays", attempts, out["replays"] + out["fallbacks"]),
        ]
        metrics.update(
            {
                "delta.hit_frac": prof.delta_hits / attempts if attempts else 0.0,
                "latency.p50_ms": pct([1e3 * t for p in plain for t in p["lat"]], 50),
                "latency.p95_ms": pct([1e3 * t for p in plain for t in p["lat"]], 95),
                "wall.throughput_per_s": len(plain) * len(self.edits)
                / sum(p["wall"] for p in plain),
                "cpu.ops_per_s": statistics.median(len(self.edits) / p["cpu"] for p in plain),
                "host.probe_ms": 1e3 * statistics.median(probes),
                "delta.replayed_fraction": (
                    statistics.fmean(prof.delta_replayed) if prof.delta_replayed else 0.0
                ),
                "trace.overhead_frac": statistics.median(p["cpu"] for p in traced)
                / statistics.median(p["cpu"] for p in plain)
                - 1.0,
            }
        )
        return {
            "metrics": metrics,
            "attempted": 2 * self.TRACE_PAIRS * len(self.edits),
            "failed": failed,
            "failures": failures,
            "expect": expect,
            "reconcile": rec,
            "spans": spans,
            "missing": tracer.missing,
        }


class ServiceZipf(Workload):
    """Open-loop Poisson arrivals of Zipf-popular ``overlap_point``
    requests into an in-process ``SimulationService``."""

    name = "service-zipf"
    #: offered requests per second, frozen so that a later change faces
    #: the same load.  Calibrated once on a 2-vCPU x86 box at Zipf
    #: exponent 1.2: at 250/s and 450/s misses overlapped on the GIL
    #: often enough that p95 spread 0.27 and 0.35 over ten seeds, too
    #: wide to gate a change; at 120/s it spread 0.19.
    RATE = 120.0
    UNIVERSE = 20000
    #: at 1.2 only 57-65% of requests were memory hits, so the median
    #: fell between hits and disk reads and spread 0.73 over five seeds;
    #: at 1.4 about 76% are, and misses are about 6% of requests at
    #: 5-8 ms each, so the compute tier is about 4% busy
    EXPONENT = 1.4
    #: episodes per timed run, each a fresh service on a fresh copy of
    #: the seeded cache; over ten seeds the CPU rate spread 0.09 with
    #: five 4-s episodes and 5-loop probes, and 0.05 and 0.10 over two
    #: sets of ten with eight 2.5-s episodes and 9-loop probes
    EPISODES = 8
    #: the probes sit between episodes, outside any timed window, so
    #: they can be longer and less noisy than a closed loop's
    PROBE_TIMES = 9
    #: the defaults of `repro serve`, frozen with the workload
    SERVE = {"lru_entries": 512, "max_queue": 32, "max_concurrency": 4, "per_client": 8}
    #: most popular keys computed into the disk cache during set-up
    SEEDED = 512
    CLIENTS = 64
    #: keys whose every response is compared with an inline runner
    SAMPLE = 16
    #: bursts per episode of BURST_SIZE identical requests arriving
    #: together for a key outside the Zipf universe, so never cached:
    #: the first computes and the rest coalesce onto it, which Poisson
    #: arrivals at this rate almost never make happen
    BURSTS = 4
    BURST_SIZE = 3
    #: a run whose generator sent later than this at p99, over the
    #: episodes its latency figures come from, did not offer the
    #: scheduled load, and is invalid
    GEN_LATE_P99_LIMIT_MS = 50.0

    def setup(self) -> None:
        from repro.runner import SweepRunner
        from repro.service import SimulationService  # noqa: F401 - import is set-up
        from repro.service.tasks import overlap_point

        # The timed window repeats one episode EPISODES times.
        episode_s = self.seconds / self.EPISODES
        due = inputs.poisson_schedule(self.seed, self.RATE, episode_s)
        ranks = inputs.zipf_picks(self.seed, len(due), self.UNIVERSE, self.EXPONENT)
        for b, t in enumerate(inputs.burst_times(self.seed, self.BURSTS, episode_s)):
            due += [t] * self.BURST_SIZE
            ranks += [self.UNIVERSE + b] * self.BURST_SIZE
        order = sorted(range(len(due)), key=due.__getitem__)
        self.due = [due[i] for i in order]
        self.ranks = [ranks[i] for i in order]
        configs = {r: inputs.service_config(r) for r in set(self.ranks)}
        self.configs = [configs[r] for r in self.ranks]
        self.clients = inputs.client_picks(self.seed, len(self.due), self.CLIENTS)
        rng = np.random.default_rng([self.seed, 7])
        distinct = sorted(configs)
        self.sample = {int(r) for r in rng.choice(distinct, min(self.SAMPLE, len(distinct)), replace=False)}
        self.seeded = self.work / "seeded"
        SweepRunner(cache_dir=self.seeded).map(
            overlap_point, [inputs.service_config(r) for r in range(self.SEEDED)]
        )

    def _run(self, traced: bool) -> dict:
        from repro.runner import SweepRunner

        cache = self.fresh_dir(copy_of=self.seeded)
        runner = SweepRunner(workers=1, cache_dir=cache, profile=True)
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        gc.collect()
        cpu0 = time.process_time()
        try:
            out = asyncio.run(self._drive(runner, traced))
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["cpu_s"] = time.process_time() - cpu0
        stop_pool()
        shutil.rmtree(cache, ignore_errors=True)
        out["runner"] = runner
        out["spans"] = tracer.spans if tracer is not None else []
        out["missing"] = tracer.missing if tracer is not None else []
        return out

    async def _drive(self, runner, traced: bool) -> dict:
        from repro.service import SimulationService

        service = SimulationService(runner, **self.SERVE)
        n = len(self.due)
        send = [math.nan] * n
        done = [math.nan] * n
        queued, started = {}, {}
        errors, responses = [], {}

        def sink(i):
            def on_event(event):
                if event["event"] == "queued":
                    queued[i] = clock()
                elif event["event"] == "started":
                    started[i] = clock()

            return on_event

        async def one(i):
            send[i] = clock()
            REQUEST.set(i)
            try:
                result = await service.submit(
                    "overlap_point",
                    self.configs[i],
                    client=self.clients[i],
                    on_event=sink(i) if traced else None,
                )
            except Exception as exc:  # noqa: BLE001 - every failure is reported
                errors.append(f"request {i}: {type(exc).__name__}: {exc}")
                return
            done[i] = clock()
            if self.ranks[i] in self.sample:
                responses.setdefault(self.ranks[i], []).append(json.dumps(result, sort_keys=True))

        tasks = []
        start = clock() + 0.01
        i = 0
        while i < n:
            now = clock()
            wait = start + self.due[i] - now
            if wait > 0:
                # Plain sleeps: polling the clock to send on time would
                # burn more CPU than the service spends on its requests.
                await asyncio.sleep(wait)
                continue
            while i < n and start + self.due[i] <= now:
                tasks.append(asyncio.ensure_future(one(i)))
                i += 1
        await asyncio.gather(*tasks)
        await service.close()
        due_abs = [start + d for d in self.due]
        waits = [started[i] - queued[i] for i in queued if i in started]
        return {
            "service": service,
            "latency": [d - t for d, t in zip(done, due_abs)],
            "late": [s - t for s, t in zip(send, due_abs)],
            "span_s": max(d for d in done if d == d) - start if n > len(errors) else math.nan,
            "errors": errors,
            "responses": responses,
            "queue_wait_ms": 1e3 * sum(waits),
        }

    def _check(self, out, failures) -> int:
        """Record what is wrong with one episode; returns its failed
        requests."""
        m = out["service"].metrics
        failures.extend(out["errors"])
        shed = sum(m.shed.values())
        if shed or m.failed or m.cancelled:
            failures.append(f"{shed} shed, {m.failed} failed, {m.cancelled} cancelled requests")
        try:
            m.reconcile(out["runner"].profile)
        except ValueError as exc:
            failures.append(f"service ledger does not reconcile: {exc}")
        return len(out["errors"]) + self._check_responses(out["responses"], failures)

    def _check_late(self, outs, failures) -> None:
        """Record whether the generator fell behind in the episodes
        ``outs``, pooled as ``service.gen_late_p99_ms`` reports them."""
        late = 1e3 * pct([x for o in outs for x in o["late"] if x == x], 99)
        if late > self.GEN_LATE_P99_LIMIT_MS:
            failures.append(
                f"generator fell behind: p99 send lateness {late:.1f} ms "
                f"> {self.GEN_LATE_P99_LIMIT_MS} ms"
            )

    def _check_responses(self, responses, failures) -> int:
        """Compare sampled responses with an inline run; returns the
        requests whose response differs."""
        from repro.runner import SweepRunner
        from repro.service.tasks import overlap_point

        ranks = sorted(responses)
        inline = SweepRunner().map(overlap_point, [inputs.service_config(r) for r in ranks])
        bad = 0
        for rank, result in zip(ranks, inline):
            want = json.dumps(result, sort_keys=True)
            wrong = sum(text != want for text in responses[rank])
            if wrong:
                failures.append(f"key rank {rank}: {wrong} service responses differ from an inline run")
            bad += wrong
        return bad

    def measure(self) -> dict:
        failures, episodes, counts, lat, span_s, outs = [], [], [], [], 0.0, []
        # One unmeasured episode first: in most runs measured while
        # calibrating, the first episode of a process ran the slowest.
        failed = self._check(self._run(traced=False), failures)
        probes, cpus = [self.probe()], []
        for _ in range(self.EPISODES):
            out = self._run(traced=False)
            probes.append(self.probe())
            failed += self._check(out, failures)
            outs.append({"late": out["late"]})
            served = [1e3 * x for x in out["latency"] if x == x]
            lat += served
            span_s += out["span_s"]
            cpus.append(out["cpu_s"])
            counts.append(len(served))
            episodes.append(dict(self._detail([out]), cpu_s=out["cpu_s"]))
        self._check_late(outs, failures)
        return {
            "metrics": {
                "ops_per_ref_cpu_s": ref_rate(counts, cpus, probes, self.ELASTICITY),
                "peak_rss_mb": own_peak_rss_mb(),
            },
            "attempted": len(self.due) * (len(episodes) + 1),
            "failed": failed,
            "failures": failures,
            "detail": {
                "samples": len(lat),
                "probe_cpu_s": probes,
                "ops_per_cpu_s": statistics.median(n / c for n, c in zip(counts, cpus)),
                "throughput_per_s": len(lat) / span_s,
                "p50_ms": pct(lat, 50),
                "p95_ms": pct(lat, 95),
                "episodes": episodes,
            },
        }

    def _detail(self, outs) -> dict:
        """Latency figures of one or more episodes, pooled."""
        lat = [1e3 * x for o in outs for x in o["latency"] if x == x]
        late = [1e3 * x for o in outs for x in o["late"] if x == x]
        tiers = {}
        for o in outs:
            for tier, samples in o["service"].metrics.latencies.items():
                tiers.setdefault(tier, []).extend(1e3 * x for x in samples)
        served = {}
        for o in outs:
            for tier, count in o["service"].metrics.served.items():
                served[tier] = served.get(tier, 0) + count
        return {
            "samples": len(lat),
            "p50_ms": pct(lat, 50),
            "p95_ms": pct(lat, 95),
            "served": served,
            "service.p99_ms": pct(lat, 99),
            "service.hit_p50_ms": pct(tiers.get("memory", [0.0]), 50),
            "service.miss_p50_ms": pct(tiers.get("compute", [0.0]), 50),
            "service.miss_p95_ms": pct(tiers.get("compute", [0.0]), 95),
            "service.gen_late_p99_ms": pct(late, 99),
        }

    def trace(self) -> dict:
        failures, plain, failed = [], [], 0
        probes = [self.probe()]
        # The service latencies need all the untraced episodes: one has
        # too few misses beyond its p95.
        for _ in range(self.EPISODES):
            plain.append(self._run(traced=False))
            failed += self._check(plain[-1], failures)
        probes.append(self.probe())
        self._check_late(plain, failures)
        out = self._run(traced=True)
        failed += self._check(out, failures)
        spans = out["spans"]
        metrics, rec = span_metrics(spans)
        m = out["service"].metrics
        counts = span_counts(spans)
        executions = m.exec_cache + m.exec_delta + m.exec_compute + m.exec_abandoned
        expect = [
            ("SimulationService.submit spans", counts.get("SimulationService.submit", 0), m.requests),
            ("LRUCache.get spans", counts.get("LRUCache.get", 0), m.requests),
            ("SweepRunner.submit spans", counts.get("SweepRunner.submit", 0), executions),
            ("simulate_overlap spans", counts.get("simulate_overlap", 0), out["runner"].profile.cache_misses),
            ("served requests", m.completed, len(self.due)),
        ]
        untraced = self._detail(plain)
        metrics.update({k: v for k, v in untraced.items() if k.startswith("service.")})
        metrics["latency.p50_ms"] = untraced["p50_ms"]
        metrics["latency.p95_ms"] = untraced["p95_ms"]
        metrics["wall.throughput_per_s"] = untraced["samples"] / sum(p["span_s"] for p in plain)
        metrics["cpu.ops_per_s"] = statistics.median(
            sum(x == x for x in p["latency"]) / p["cpu_s"] for p in plain
        )
        metrics["host.probe_ms"] = 1e3 * statistics.median(probes)
        metrics.update(
            {
                "service.tier.memory": m.served.get("memory", 0),
                "service.tier.cache": m.served.get("cache", 0),
                "service.tier.compute": m.served.get("compute", 0),
                "service.tier.coalesced": m.served.get("coalesced", 0),
                "service.shed": sum(m.shed.values()),
                "service.queue_wait_ms": out["queue_wait_ms"],
                "service.queue_depth_peak": m.queue_depth_peak,
                "service.exec_per_request": executions / m.requests if m.requests else 0.0,
                # compute threads' wall over the execution slots' time
                "runner.worker_busy_frac": out["runner"].profile.inline_s
                / (self.SERVE["max_concurrency"] * out["span_s"]),
                # Every episode serves the same schedule; the traced one
                # costs this much more CPU than the untraced median.
                "trace.overhead_frac": out["cpu_s"] / statistics.median(p["cpu_s"] for p in plain)
                - 1.0,
            }
        )
        return {
            "metrics": metrics,
            "attempted": (self.EPISODES + 1) * len(self.due),
            "failed": failed,
            "failures": failures,
            "expect": expect,
            "reconcile": rec,
            "spans": spans,
            "missing": out["missing"],
        }


WORKLOADS = {w.name: w for w in (SweepCold, ServiceZipf, DeltaEdits)}
