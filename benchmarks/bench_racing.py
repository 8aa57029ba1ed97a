#!/usr/bin/env python
"""Tail-latency policy benchmark: redundant-issue racing and stealing.

Charts the redundancy sweet-spot crossover of the policy family in
``repro.core.racing`` on three grids:

* **racing** — high-jitter, high-drop fault plans (seeds x drop rates)
  where a dropped single-issue stream stalls until the retry timeout.
  Racing subscribes every needed column at two replica owners, so the
  second copy masks the stall; the gate requires its p99 step latency
  at least 1.25x better (i.e. <= 0.8x) than single-issue *on grid
  average*, never worse on any point, and the value digests identical
  (racing may change when pebbles complete, never their values).  The
  mean — not the min — carries the 1.25x floor because replica owners
  are adjacent on a linear host: when a drop lands on the route
  segment the two replica streams share, both stall together and that
  point degrades to parity, which no fanout-2 scheme can beat.
* **clean** — the same workload with no faults: the redundancy bill.
  Racing roughly doubles the message count for no latency win; the
  recorded message ratio documents why single-issue stays the default.
* **stealing** — skewed assignments (a few hosts handed a multiple of
  their neighbours' columns) with no faults, run on the dense tier
  with and without ``steal_rebalance``.  The gate requires the stolen
  makespan never worse than static on every seed.

A fourth record maps the w1 policy grid through ``SweepRunner`` at 1
and 2 workers and asserts the rows identical (``results_identical``).

Every section records the execution tier its policy runs took
(``racing_engine`` / ``engine``): faulted races run on the greedy
engine, fault-free ones on the dense tier.

Results go to ``BENCH_racing.json`` (``--out`` to override)::

    PYTHONPATH=src python benchmarks/bench_racing.py --smoke

``--smoke`` shrinks the grids for CI and stamps ``"smoke": true``; the
ratio gates apply smoke or not — they compare two runs of the same
workload, so both sides shrink together.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.core.assignment import Assignment, steal_rebalance  # noqa: E402
from repro.core.dense import DenseExecutor, build_executor  # noqa: E402
from repro.core.overlap import simulate_overlap  # noqa: E402
from repro.machine.host import HostArray  # noqa: E402
from repro.machine.programs import CounterProgram  # noqa: E402
from repro.netsim.faults import FaultPlan  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Racing must beat single-issue p99 by at least this factor on grid
# average (1.25x better == racing p99 <= 0.8x single), and must never
# be worse on any single point (shared-segment drops stall both
# replicas, so the worst point can degrade to parity — not below it).
MIN_P99_RATIO_MEAN = 1.25
MIN_P99_RATIO_POINT = 1.0


def _col_digests(res) -> dict:
    out: dict = {}
    for (_p, c), d in res.exec_result.value_digests.items():
        if out.setdefault(c, d) != d:
            raise AssertionError(f"replicas of column {c} disagree")
    return out


def _engines(names) -> str:
    """The tier(s) a section's runs took, e.g. ``"dense"``."""
    return "+".join(sorted(set(names)))


def _point(host, steps, plan, policy):
    res = simulate_overlap(
        host, steps=steps, min_copies=2, faults=plan, policy=policy
    )
    lat = res.exec_result.stats.step_latency_summary()
    return res, lat


def bench_racing(n: int, steps: int, seeds, drop_rates, smoke: bool) -> dict:
    host = HostArray.uniform(n, delay=3)
    horizon = 5 * steps
    points = []
    engines = []
    for seed in seeds:
        for dr in drop_rates:
            plan = FaultPlan.random(
                n,
                seed=seed,
                horizon=horizon,
                jitter_rate=0.9,
                drop_rate=dr,
                max_jitter=12,
            )
            base, base_lat = _point(host, steps, plan, "single")
            raced, raced_lat = _point(host, steps, plan, "racing")
            engines.append(raced.engine)
            if _col_digests(raced) != _col_digests(base):
                raise AssertionError(
                    f"racing diverged from single-issue (seed={seed}, "
                    f"drop={dr})"
                )
            points.append(
                {
                    "seed": seed,
                    "drop_rate": dr,
                    "single_p99": base_lat["p99"],
                    "racing_p99": raced_lat["p99"],
                    "p99_ratio": round(base_lat["p99"] / raced_lat["p99"], 2),
                    "single_makespan": base.exec_result.stats.makespan,
                    "racing_makespan": raced.exec_result.stats.makespan,
                    "cancelled": raced.exec_result.stats.extras[
                        "cancelled_messages"
                    ],
                }
            )
    ratios = [p["p99_ratio"] for p in points]
    return {
        "n": n,
        "steps": steps,
        "grid": len(points),
        "points": points,
        "p99_ratio_min": min(ratios),
        "p99_ratio_mean": round(sum(ratios) / len(ratios), 2),
        "digest_identical": True,
        "racing_engine": _engines(engines),
        "smoke": smoke,
    }


def bench_clean(n: int, steps: int, smoke: bool) -> dict:
    """The redundancy bill: fault-free, bandwidth-bound ground."""
    host = HostArray.uniform(n, delay=3)
    base, base_lat = _point(host, steps, None, "single")
    raced, raced_lat = _point(host, steps, None, "racing")
    if _col_digests(raced) != _col_digests(base):
        raise AssertionError("racing diverged from single-issue (clean)")
    bs, rs = base.exec_result.stats, raced.exec_result.stats
    return {
        "n": n,
        "steps": steps,
        "single_messages": bs.messages,
        "racing_messages": rs.messages,
        "message_ratio": round(rs.messages / bs.messages, 2),
        "single_p99": base_lat["p99"],
        "racing_p99": raced_lat["p99"],
        "single_makespan": bs.makespan,
        "racing_makespan": rs.makespan,
        "digest_identical": True,
        "racing_engine": raced.engine,
        "smoke": smoke,
    }


def _skewed(n: int, per: int, extra: int, hot: int, seed: int) -> Assignment:
    rng = random.Random(seed)
    sizes = [per] * n
    for p in rng.sample(range(n), hot):
        sizes[p] = per + extra
    ranges, lo = [], 1
    for s in sizes:
        ranges.append((lo, lo + s - 1))
        lo += s
    return Assignment(ranges, lo - 1)


def bench_stealing(n: int, steps: int, seeds, smoke: bool) -> dict:
    host = HostArray.uniform(n, delay=2)
    program = CounterProgram()
    points = []
    engines = []
    for seed in seeds:
        asg = _skewed(n, 3, 6, max(2, n // 8), seed)
        static = build_executor("auto", host, asg, program, steps).run()
        stolen_asg, moves = steal_rebalance(asg, host, seed=0)
        executor = build_executor("auto", host, stolen_asg, program, steps)
        engines.append(
            "dense" if isinstance(executor, DenseExecutor) else "greedy"
        )
        stolen = executor.run()
        if _col_digests_exec(stolen) != _col_digests_exec(static):
            raise AssertionError(f"stealing diverged (seed={seed})")
        points.append(
            {
                "seed": seed,
                "static_makespan": static.stats.makespan,
                "stolen_makespan": stolen.stats.makespan,
                "moves": len(moves),
                "speedup": round(
                    static.stats.makespan / stolen.stats.makespan, 2
                ),
            }
        )
    speedups = [p["speedup"] for p in points]
    return {
        "n": n,
        "steps": steps,
        "grid": len(points),
        "points": points,
        "never_worse": all(
            p["stolen_makespan"] <= p["static_makespan"] for p in points
        ),
        "speedup_min": min(speedups),
        "speedup_mean": round(sum(speedups) / len(speedups), 2),
        "digest_identical": True,
        "engine": _engines(engines),
        "smoke": smoke,
    }


def _col_digests_exec(exec_result) -> dict:
    out: dict = {}
    for (_p, c), d in exec_result.value_digests.items():
        if out.setdefault(c, d) != d:
            raise AssertionError(f"replicas of column {c} disagree")
    return out


def bench_workers(smoke: bool) -> dict:
    from repro.experiments.w1 import _policy_point
    from repro.runner import SweepRunner

    configs = [
        {
            "n": 24 if smoke else 48,
            "delay": 3,
            "steps": 4 if smoke else 8,
            "policy": pol,
            "max_jitter": 12,
            "jitter_rate": 0.9,
            "drop_rate": 0.3,
            "seed": 1996,
            "horizon": 40,
        }
        for pol in ("single", "racing", "stealing", "racing+stealing")
    ]
    serial = SweepRunner(workers=1).map(_policy_point, configs)
    pooled = SweepRunner(workers=2).map(_policy_point, configs)
    return {
        "grid": len(configs),
        "workers": 2,
        "results_identical": pooled == serial,
        "racing_engine": _engines(
            row["engine"] for row in serial if "racing" in row["policy"]
        ),
        "smoke": smoke,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small CI-sized grids"
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_racing.json"),
        help="output JSON path (default: repo-root BENCH_racing.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        n, steps = 32, 8
        seeds, drops = (1996, 1997), (0.3, 0.6)
        steal_seeds = (1, 2)
    else:
        n, steps = 48, 16
        seeds, drops = (1996, 1997, 1998, 1999, 2000), (0.3, 0.6, 0.9)
        steal_seeds = (1, 2, 3, 4, 5)

    print(f"[bench_racing] racing grid: n={n} steps={steps} "
          f"{len(seeds)}x{len(drops)} points, smoke={args.smoke}")
    racing = bench_racing(n, steps, seeds, drops, args.smoke)
    print(
        f"[bench_racing] racing p99 ratio min {racing['p99_ratio_min']}x "
        f"mean {racing['p99_ratio_mean']}x over {racing['grid']} points"
    )
    clean = bench_clean(n, steps, args.smoke)
    print(
        f"[bench_racing] clean ground: racing costs "
        f"{clean['message_ratio']}x messages for p99 "
        f"{clean['single_p99']} -> {clean['racing_p99']} "
        f"({clean['racing_engine']} tier)"
    )
    stealing = bench_stealing(n, steps, steal_seeds, args.smoke)
    print(
        f"[bench_racing] stealing: never_worse={stealing['never_worse']} "
        f"speedup mean {stealing['speedup_mean']}x over {stealing['grid']} "
        "skewed seeds"
    )
    workers = bench_workers(args.smoke)
    print(
        f"[bench_racing] worker identity: "
        f"results_identical={workers['results_identical']}"
    )

    payload = {
        "bench": "racing",
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "sections": {
            "racing": racing,
            "clean": clean,
            "stealing": stealing,
            "workers": workers,
        },
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_racing] wrote {out}")

    failed = False
    if racing["p99_ratio_mean"] < MIN_P99_RATIO_MEAN:
        print(
            f"[bench_racing] FAIL: racing p99 only "
            f"{racing['p99_ratio_mean']}x better than single-issue on "
            f"grid average (< {MIN_P99_RATIO_MEAN}x)",
            file=sys.stderr,
        )
        failed = True
    if racing["p99_ratio_min"] < MIN_P99_RATIO_POINT:
        print(
            f"[bench_racing] FAIL: racing p99 {racing['p99_ratio_min']}x "
            f"on the worst grid point (< {MIN_P99_RATIO_POINT}x — racing "
            "made a point worse)",
            file=sys.stderr,
        )
        failed = True
    if not stealing["never_worse"]:
        print(
            "[bench_racing] FAIL: stealing made a skewed seed worse "
            "than static assignment",
            file=sys.stderr,
        )
        failed = True
    if not workers["results_identical"]:
        print(
            "[bench_racing] FAIL: policy sweep rows differ across "
            "worker counts",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
