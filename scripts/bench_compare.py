#!/usr/bin/env python
"""PR-acceptance gate over the ``BENCH_*.json`` artifacts.

Run after ``benchmarks/bench_sweep.py``, ``bench_dense.py``,
``bench_delta.py``, ``bench_service.py`` and ``bench_racing.py`` (CI
does; see the ``bench-smoke`` job).  Checks, in order:

1. **sweep speedup** — with >= 4 workers on a >= 4-CPU machine, the
   parallel sweep must not be slower than serial (``speedup >= 1.0``;
   the parallel-regression gate).  Skipped honestly on smaller or
   oversubscribed machines (the sweep section arrives smoke-tagged
   when ``cpus < workers``), where compute-bound parallelism cannot
   win.
2. **engine ratio** — the dense fault-free tier must be >= 3x the
   greedy engine (``engines.dense_over_greedy``).  A single-core
   property, so it applies on every machine, smoke or not.
3. **absolute throughput** — executor steps/sec must clear a coarse
   floor, but **only for non-smoke records**: entries tagged
   ``"smoke": true`` come from CI-sized grids whose absolute numbers
   are meaningless, and are ignored rather than misread as
   regressions.
4. **per-topology engine ratios** — ``BENCH_dense.json`` must show
   the dense tier >= 3x greedy on the *ring* and *graph* sections,
   and the *line* section must not regress below 10% under its
   recorded 6.96x (>= 6.26x; relaxed to the 3x floor on smoke
   records, whose small workloads blunt the vectorisation win).
5. **faulted engine ratios** — the ``faulted`` section of
   ``BENCH_dense.json`` must show the segmented
   :class:`FaultedDenseExecutor` >= 2x greedy on *line*, *ring* and
   *graph* sub-records (scalar fault handling and per-boundary
   checkpoints eat into the vectorisation win, hence the lower
   floor — it applies smoke or not, like every ratio gate).
6. **delta replay** — ``BENCH_delta.json`` must show the checkpoint
   suffix-replay path >= 2x faster than the full-recompute miss path
   on the one-knob edit grid (>= 1.2x on smoke records, whose tiny
   runs spend comparatively more time in cache IO), with every edit
   served by a replay (zero fallbacks) and the replayed rows asserted
   identical to full recomputes.
7. **service latency** — ``BENCH_service.json`` must show the
   in-memory cache-hit p50 >= 20x cheaper than a cold-miss p50, all
   duplicate submissions coalesced onto exactly one execution, and
   coalesced == independent response bytes (the service tier's
   "serving is essentially free" contract; the ratio applies smoke or
   not, since both sides shrink together).
8. **tail-latency policies** — ``BENCH_racing.json`` must show
   redundant-issue racing >= 1.25x better p99 step latency than
   single-issue on grid average over the high-jitter/high-drop grid
   (never worse on any point), work stealing never worse than the
   static assignment on every skewed seed, value digests identical on
   both grids, the policy sweep rows identical across worker
   counts, and the fault-free (clean) races run on the dense tier.
   The ratio gates apply smoke or not — both sides of each
   comparison shrink together.
9. **differential tests** — the dense-vs-greedy bit-identical suites
   (``tests/test_dense.py`` fault-free, ``tests/test_dense_faults.py``
   faulted), the delta-replay-vs-recompute suite
   (``tests/test_delta.py``) and the policy-vs-single-issue suite
   (``tests/test_racing.py``) must run with zero skips; a skipped
   differential test would let the fast path drift from the reference
   silently.  ``--no-tests`` omits this (e.g. when pytest is absent).

Exit status 0 = all gates pass.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Coarse floor for non-smoke executor throughput: an order of magnitude
# under the measured dense rate, so it only trips on catastrophic
# hot-path regressions, not machine-to-machine noise.
MIN_STEPS_PER_SEC = 20_000.0
MIN_DENSE_OVER_GREEDY = 3.0
# Line-section regression floor: the recorded full-workload ratio is
# 6.96x (BENCH_dense.json); allow 10% machine-to-machine noise.
MIN_LINE_OVER_GREEDY = 6.26
# Segmented faulted tier: scalar fault handling and per-boundary
# checkpoints eat into the vectorisation win, so the floor is lower
# than the fault-free 3x.
MIN_FAULTED_OVER_GREEDY = 2.0
# Delta suffix-replay over the full-recompute miss path on the
# one-knob edit grid; smoke workloads are cache-IO-bound, so only a
# sanity floor applies there.
MIN_DELTA_SPEEDUP = 2.0
MIN_DELTA_SPEEDUP_SMOKE = 1.2
# In-memory cache-hit p50 vs cold-miss p50 on the service front-end; a
# pure ratio of two latencies measured in the same run, so it applies
# smoke or not.
MIN_SERVICE_HIT_RATIO = 20.0
# Racing p99 vs single-issue p99 on the high-jitter grid: 1.25x better
# on grid average (racing p99 <= 0.8x single), never worse per point
# (shared-segment drops stall both replicas, so the worst point may
# degrade to parity — not below it).
MIN_RACING_P99_MEAN = 1.25
MIN_RACING_P99_POINT = 1.0


def _fail(msg: str) -> bool:
    print(f"[bench_compare] FAIL: {msg}", file=sys.stderr)
    return True


def check_sweep(payload: dict) -> bool:
    sweep = payload.get("sweep", {})
    cpus = payload.get("cpus", 1)
    workers = sweep.get("workers", 0)
    speedup = sweep.get("speedup")
    if sweep.get("smoke"):
        print(
            f"[bench_compare] sweep section smoke-tagged "
            f"(cpus={cpus}, workers={workers}) — speedup gate skipped"
        )
    elif cpus >= 4 and workers >= 4:
        if speedup is None or speedup < 1.0:
            return _fail(
                f"sweep speedup {speedup}x < 1.0x at {workers} workers on a "
                f"{cpus}-cpu machine — the parallel path is a regression"
            )
        print(f"[bench_compare] sweep speedup {speedup}x at {workers} workers: ok")
    else:
        print(
            f"[bench_compare] sweep speedup gate skipped "
            f"(cpus={cpus}, workers={workers})"
        )
    if not sweep.get("results_identical", False):
        return _fail("sweep did not assert parallel == serial results")
    return False


def check_engines(payload: dict) -> bool:
    engines = payload.get("engines")
    if not engines:
        return _fail("no 'engines' section — dense-vs-greedy ratio unmeasured")
    ratio = engines.get("dense_over_greedy")
    if ratio is None or ratio < MIN_DENSE_OVER_GREEDY:
        return _fail(
            f"dense engine only {ratio}x greedy (< {MIN_DENSE_OVER_GREEDY}x)"
        )
    print(f"[bench_compare] dense {ratio}x greedy: ok")
    return False


def check_dense(payload: dict) -> bool:
    """Per-topology engine-ratio gates over ``BENCH_dense.json``."""
    sections = payload.get("sections")
    if not sections:
        return _fail("BENCH_dense.json has no 'sections' — nothing measured")
    failed = False
    for name in ("line", "ring", "graph"):
        rec = sections.get(name)
        if not rec:
            failed = _fail(f"BENCH_dense.json missing the '{name}' section")
            continue
        ratio = rec.get("dense_over_greedy")
        floor = MIN_DENSE_OVER_GREEDY
        if name == "line" and not rec.get("smoke"):
            floor = MIN_LINE_OVER_GREEDY
        if ratio is None or ratio < floor:
            failed = _fail(
                f"dense/{name}: only {ratio}x greedy (< {floor}x)"
            )
        else:
            print(f"[bench_compare] dense/{name}: {ratio}x greedy: ok")
    return failed


def check_faulted(payload: dict) -> bool:
    """Faulted-tier engine-ratio gates over ``BENCH_dense.json``.

    A missing ``faulted`` section fails loudly: silently skipping it
    would let the segmented executor regress to (or below) greedy
    speed without any gate noticing.
    """
    faulted = (payload.get("sections") or {}).get("faulted")
    if not faulted:
        return _fail(
            "BENCH_dense.json has no 'faulted' section — the segmented "
            "fault-path speedup is unmeasured"
        )
    failed = False
    for name in ("line", "ring", "graph"):
        rec = faulted.get(name)
        if not rec:
            failed = _fail(f"faulted section missing the '{name}' record")
            continue
        ratio = rec.get("dense_over_greedy")
        if ratio is None or ratio < MIN_FAULTED_OVER_GREEDY:
            failed = _fail(
                f"faulted/{name}: only {ratio}x greedy "
                f"(< {MIN_FAULTED_OVER_GREEDY}x)"
            )
        else:
            events = rec.get("fault_events", "?")
            print(
                f"[bench_compare] faulted/{name}: {ratio}x greedy "
                f"({events} fault events): ok"
            )
    return failed


def check_delta(payload: dict) -> bool:
    """Suffix-replay gates over ``BENCH_delta.json``.

    Three properties, all load-bearing: the replay must actually be
    faster than recomputing (else the machinery is dead weight), every
    edit in the one-knob grid must be served by a replay (a fallback
    means the blast-radius rules or the checkpoint coverage silently
    degraded), and the rows must be bit-identical to full recomputes.
    """
    rec = (payload.get("sections") or {}).get("one_knob")
    if not rec:
        return _fail(
            "BENCH_delta.json has no 'one_knob' section — the delta "
            "replay path is unmeasured"
        )
    failed = False
    floor = MIN_DELTA_SPEEDUP_SMOKE if rec.get("smoke") else MIN_DELTA_SPEEDUP
    speedup = rec.get("speedup")
    if speedup is None or speedup < floor:
        failed = _fail(
            f"delta replay only {speedup}x over full recompute (< {floor}x)"
        )
    else:
        print(f"[bench_compare] delta replay {speedup}x full recompute: ok")
    hits = rec.get("delta_hits", 0)
    grid = rec.get("grid", 0)
    fallbacks = rec.get("delta_fallbacks", 0)
    if hits < grid or fallbacks:
        failed = _fail(
            f"delta grid: {hits}/{grid} replays, {fallbacks} fallback(s) "
            "— every one-knob edit must be served by a suffix replay"
        )
    else:
        print(f"[bench_compare] delta grid: {hits}/{grid} replays, 0 fallbacks: ok")
    if not rec.get("results_identical", False):
        failed = _fail("delta run did not assert replayed == recomputed rows")
    return failed


def check_service(payload: dict) -> bool:
    """Service-front-end gates over ``BENCH_service.json``.

    Three properties: warm serving must be essentially free relative to
    a cold miss (the latency ratio), duplicate in-flight submissions
    must coalesce onto exactly one execution, and a coalesced response
    must be byte-identical to one computed independently (a coalescing
    or caching bug that changed bytes would silently poison every
    rider).
    """
    rec = (payload.get("sections") or {}).get("service")
    if not rec:
        return _fail(
            "BENCH_service.json has no 'service' section — the request "
            "path is unmeasured"
        )
    failed = False
    ratio = rec.get("hit_speedup_p50")
    if ratio is None or ratio < MIN_SERVICE_HIT_RATIO:
        failed = _fail(
            f"service cache-hit p50 only {ratio}x cheaper than a cold "
            f"miss (< {MIN_SERVICE_HIT_RATIO}x)"
        )
    else:
        print(
            f"[bench_compare] service hit p50 {rec.get('hit_p50_ms')}ms vs "
            f"miss p50 {rec.get('miss_p50_ms')}ms ({ratio}x): ok"
        )
    execs = rec.get("coalesced_executions")
    waiters = rec.get("coalesced_waiters", "?")
    if execs != 1:
        failed = _fail(
            f"service: {waiters} duplicate submissions ran {execs} "
            "executions (expected exactly 1)"
        )
    else:
        print(
            f"[bench_compare] service coalescing: {waiters} waiters -> "
            "1 execution: ok"
        )
    if not rec.get("results_identical", False):
        failed = _fail(
            "service: coalesced and independent submissions were not "
            "byte-identical"
        )
    rps = rec.get("requests_per_sec")
    if rps is not None:
        print(f"[bench_compare] service sustained {rps:,.0f} req/s (informational)")
    return failed


def check_racing(payload: dict) -> bool:
    """Tail-latency policy gates over ``BENCH_racing.json``.

    Four properties: racing must actually tame the tail it exists for
    (the p99 ratio on the high-jitter grid), stealing must never make
    a skewed assignment worse (else the rebalance is a liability),
    both must be digest-identical to their single-issue ground truth
    (a policy may change *when* pebbles complete, never their values),
    and the policy sweep must be bit-identical at any worker count.
    """
    sections = payload.get("sections") or {}
    failed = False
    racing = sections.get("racing")
    if not racing:
        return _fail(
            "BENCH_racing.json has no 'racing' section — the tail-latency "
            "win is unmeasured"
        )
    mean = racing.get("p99_ratio_mean")
    worst = racing.get("p99_ratio_min")
    if mean is None or mean < MIN_RACING_P99_MEAN:
        failed = _fail(
            f"racing p99 only {mean}x better than single-issue on grid "
            f"average (< {MIN_RACING_P99_MEAN}x)"
        )
    elif worst is None or worst < MIN_RACING_P99_POINT:
        failed = _fail(
            f"racing p99 {worst}x on the worst grid point "
            f"(< {MIN_RACING_P99_POINT}x — racing made a point worse)"
        )
    else:
        print(
            f"[bench_compare] racing p99 {mean}x single-issue on average "
            f"(worst point {worst}x) over {racing.get('grid', '?')} "
            "high-jitter points: ok"
        )
    if not racing.get("digest_identical", False):
        failed = _fail("racing grid did not assert digest identity")
    clean = sections.get("clean")
    if clean:
        print(
            f"[bench_compare] racing redundancy bill: "
            f"{clean.get('message_ratio')}x messages on clean links "
            "(informational)"
        )
        # Fault-free racing must stay on the fast tier; a silent
        # fallback to the greedy engine would only show up as time.
        if clean.get("racing_engine") != "dense":
            failed = _fail(
                f"fault-free racing ran on the "
                f"{clean.get('racing_engine')!r} tier, not 'dense'"
            )
    stealing = sections.get("stealing")
    if not stealing:
        failed = _fail(
            "BENCH_racing.json has no 'stealing' section — the rebalance "
            "is unmeasured"
        )
    else:
        if not stealing.get("never_worse", False):
            failed = _fail(
                "stealing made a skewed seed worse than the static "
                "assignment"
            )
        else:
            print(
                f"[bench_compare] stealing never worse, "
                f"{stealing.get('speedup_mean')}x mean speedup over "
                f"{stealing.get('grid', '?')} skewed seeds: ok"
            )
        if not stealing.get("digest_identical", False):
            failed = _fail("stealing grid did not assert digest identity")
    workers = sections.get("workers")
    if not workers or not workers.get("results_identical", False):
        failed = _fail(
            "policy sweep rows were not asserted identical across worker "
            "counts"
        )
    else:
        print(
            f"[bench_compare] policy sweep identical at "
            f"{workers.get('workers')} workers: ok"
        )
    return failed


def check_throughput(payload: dict) -> bool:
    failed = False
    records = {"executor": payload.get("executor", {})}
    engines = payload.get("engines", {})
    for name in ("greedy", "dense"):
        if isinstance(engines.get(name), dict):
            records[f"engines.{name}"] = engines[name]
    for name, rec in records.items():
        sps = rec.get("steps_per_sec")
        if sps is None:
            continue
        if rec.get("smoke"):
            print(
                f"[bench_compare] {name}: smoke-tagged record "
                f"({sps:,.0f} steps/sec) — absolute floor skipped"
            )
            continue
        if sps < MIN_STEPS_PER_SEC:
            failed = _fail(
                f"{name}: {sps:,.0f} steps/sec < floor {MIN_STEPS_PER_SEC:,.0f}"
            )
        else:
            print(f"[bench_compare] {name}: {sps:,.0f} steps/sec: ok")
    return failed


def check_differential_tests() -> bool:
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        "tests/test_dense.py",
        "tests/test_dense_faults.py",
        "tests/test_delta.py",
        "tests/test_racing.py",
        "-q",
        "-rs",
    ]
    env_path = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        cmd, cwd=REPO_ROOT, env=env, capture_output=True, text=True
    )
    out = proc.stdout + proc.stderr
    if proc.returncode != 0:
        sys.stderr.write(out)
        return _fail("dense-vs-greedy differential tests failed")
    skipped = re.search(r"(\d+) skipped", out)
    if skipped and int(skipped.group(1)) > 0:
        sys.stderr.write(out)
        return _fail(
            f"{skipped.group(1)} differential test(s) skipped — the dense "
            "tier is not being checked against the reference"
        )
    # A suite that collects nothing is as bad as a skipped one.
    if "[100%]" not in out and not re.search(r"\d+ passed", out):
        sys.stderr.write(out)
        return _fail("differential test suite ran no tests")
    print("[bench_compare] differential tests: ran, zero skips")
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench",
        default=str(REPO_ROOT / "BENCH_sweep.json"),
        help="path to BENCH_sweep.json (default: repo root)",
    )
    parser.add_argument(
        "--dense",
        default=str(REPO_ROOT / "BENCH_dense.json"),
        help="path to BENCH_dense.json (default: repo root)",
    )
    parser.add_argument(
        "--delta",
        default=str(REPO_ROOT / "BENCH_delta.json"),
        help="path to BENCH_delta.json (default: repo root)",
    )
    parser.add_argument(
        "--service",
        default=str(REPO_ROOT / "BENCH_service.json"),
        help="path to BENCH_service.json (default: repo root)",
    )
    parser.add_argument(
        "--racing",
        default=str(REPO_ROOT / "BENCH_racing.json"),
        help="path to BENCH_racing.json (default: repo root)",
    )
    parser.add_argument(
        "--no-tests",
        action="store_true",
        help="skip running the differential test suite",
    )
    args = parser.parse_args(argv)

    path = pathlib.Path(args.bench)
    if not path.exists():
        _fail(f"{path} not found — run benchmarks/bench_sweep.py first")
        return 1
    payload = json.loads(path.read_text())
    if payload.get("smoke"):
        print("[bench_compare] smoke artifact: absolute floors will be skipped")

    failed = False
    failed |= check_sweep(payload)
    failed |= check_engines(payload)
    failed |= check_throughput(payload)
    dense_path = pathlib.Path(args.dense)
    if not dense_path.exists():
        failed |= _fail(
            f"{dense_path} not found — run benchmarks/bench_dense.py first"
        )
    else:
        dense_payload = json.loads(dense_path.read_text())
        failed |= check_dense(dense_payload)
        failed |= check_faulted(dense_payload)
    delta_path = pathlib.Path(args.delta)
    if not delta_path.exists():
        failed |= _fail(
            f"{delta_path} not found — run benchmarks/bench_delta.py first"
        )
    else:
        failed |= check_delta(json.loads(delta_path.read_text()))
    service_path = pathlib.Path(args.service)
    if not service_path.exists():
        failed |= _fail(
            f"{service_path} not found — run benchmarks/bench_service.py first"
        )
    else:
        failed |= check_service(json.loads(service_path.read_text()))
    racing_path = pathlib.Path(args.racing)
    if not racing_path.exists():
        failed |= _fail(
            f"{racing_path} not found — run benchmarks/bench_racing.py first"
        )
    else:
        failed |= check_racing(json.loads(racing_path.read_text()))
    if not args.no_tests:
        failed |= check_differential_tests()

    if failed:
        return 1
    print("[bench_compare] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
