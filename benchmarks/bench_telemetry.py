#!/usr/bin/env python
"""Telemetry overhead benchmark: the disabled path must stay free.

The telemetry layer's core promise is that *not* using it costs
(essentially) nothing: the greedy executor's one event loop guards each
recording call with a single test on a local (``timeline is not
None``), and the dense executor feeds telemetry from its event buckets
strictly after the timed simulation.  This script checks both sides of
that promise:

* **disabled path** (the gate) — a run with ``telemetry=None`` makes
  zero Python-level calls into the :mod:`repro.telemetry` package, per
  engine, counted with :func:`sys.setprofile`.  The count is exact and
  the same on every machine, so the gate cannot be widened by noise; an
  enabled run's count is recorded beside it to show the probe sees
  telemetry calls at all;
* **wall clock** — the disabled run interleaved A/B against a second
  identical disabled pass, reported as ``noise_pct`` (no gate: two
  passes of identical code measure only the machine), and the enabled
  cost with a :class:`~repro.telemetry.timeline.MetricsTimeline`
  attached, reported for the docs;
* **bit-identity** — disabled and enabled runs must produce the same
  stats and value digests for both engines (hard failure otherwise).

Walls are median-of-``--repeats`` after a warm-up.  Results go to
``BENCH_telemetry.json``, stamped with the git commit they measured
(``git_sha``, plus ``git_dirty`` when the working tree had uncommitted
changes)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import numpy as np

from repro.core.assignment import assign_databases
from repro.core.dense import DenseExecutor
from repro.core.executor import GreedyExecutor
from repro.core.killing import kill_and_label
from repro.machine.host import HostArray
from repro.machine.programs import get_program
import repro.telemetry
from repro.telemetry import MetricsTimeline
from repro.topology.delays import scale_to_average, uniform_delays

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_ENGINES = {"greedy": GreedyExecutor, "dense": DenseExecutor}


def _git_stamp() -> dict:
    """The commit this run measured (``None`` outside a git checkout)."""
    try:
        def git(*cmd: str) -> str:
            return subprocess.run(
                ["git", *cmd], cwd=REPO_ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()

        return {
            "git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": None, "git_dirty": None}


def _bench_host(n: int, d_target: float, seed: int = 0) -> HostArray:
    rng = np.random.default_rng(seed)
    return HostArray(scale_to_average(uniform_delays(n - 1, rng, 1, 8), d_target))


def _time_variant(cls, setup, steps: int, telemetry_factory) -> float:
    """One timed run of ``cls`` with a fresh telemetry sink (or None)."""
    host, assignment, program = setup
    tl = telemetry_factory() if telemetry_factory else None
    t0 = time.perf_counter()
    cls(host, assignment, program, steps, telemetry=tl).run()
    return time.perf_counter() - t0


_TELEMETRY_DIR = os.path.dirname(repro.telemetry.__file__) + os.sep


def telemetry_calls(cls, setup, steps: int, telemetry_factory=None) -> int:
    """Python-level calls into :mod:`repro.telemetry` made while one
    run of ``cls`` is constructed and executed (``telemetry_factory``
    None = the disabled path)."""
    host, assignment, program = setup
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_TELEMETRY_DIR):
            calls += 1

    tl = telemetry_factory() if telemetry_factory else None
    sys.setprofile(count)
    try:
        cls(host, assignment, program, steps, telemetry=tl).run()
    finally:
        sys.setprofile(None)
    return calls


def bench_engine(name: str, n: int, steps: int, repeats: int) -> dict:
    """Telemetry call counts, and median walls for disabled /
    interleaved-control / enabled runs.

    The two disabled variants (A and the control B) alternate within
    each repeat so drift (thermal, caches, another process waking up)
    lands on both equally instead of biasing whichever ran last.
    """
    cls = _ENGINES[name]
    host = _bench_host(n, 8)
    setup = (host, assign_databases(kill_and_label(host), block=2),
             get_program("counter"))

    # Warm-up: one of each variant.
    _time_variant(cls, setup, steps, None)
    _time_variant(cls, setup, steps, MetricsTimeline)

    disabled, control, enabled = [], [], []
    for i in range(repeats):
        # Alternate A/B order per repeat: whichever slot runs first in
        # a triplet inherits the previous enabled run's GC debris, so a
        # fixed order would bias one side systematically.
        first, second = (disabled, control) if i % 2 == 0 else (control, disabled)
        first.append(_time_variant(cls, setup, steps, None))
        second.append(_time_variant(cls, setup, steps, None))
        enabled.append(_time_variant(cls, setup, steps, MetricsTimeline))

    disabled_s = statistics.median(disabled)
    control_s = statistics.median(control)
    enabled_s = statistics.median(enabled)

    # Bit-identity check (outside the timed region).
    plain = cls(host, setup[1], setup[2], steps).run()
    timed = cls(host, setup[1], setup[2], steps, telemetry=MetricsTimeline()).run()
    if plain.stats.as_dict() != timed.stats.as_dict():
        raise AssertionError(f"{name}: telemetry changed the stats")
    if plain.value_digests != timed.value_digests:
        raise AssertionError(f"{name}: telemetry changed the computed values")

    pebbles = plain.stats.pebbles
    return {
        "engine": name,
        "n": n,
        "steps": steps,
        "pebbles": pebbles,
        "disabled_telemetry_calls": telemetry_calls(cls, setup, steps),
        "enabled_telemetry_calls": telemetry_calls(
            cls, setup, steps, MetricsTimeline
        ),
        "disabled_s": round(disabled_s, 5),
        "control_s": round(control_s, 5),
        "enabled_s": round(enabled_s, 5),
        "disabled_steps_per_sec": round(pebbles / disabled_s, 1),
        "noise_pct": round(100.0 * abs(disabled_s - control_s) / control_s, 2),
        "enabled_overhead_pct": round(
            100.0 * (enabled_s - control_s) / control_s, 2
        ),
        "bit_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized run")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_telemetry.json"),
        help="output JSON path (default: repo-root BENCH_telemetry.json)",
    )
    args = parser.parse_args(argv)

    n, steps = (96, 12) if args.smoke else (192, 24)
    records = []
    failed = False
    for name in ("greedy", "dense"):
        rec = bench_engine(name, n, steps, args.repeats)
        records.append(rec)
        print(
            f"[bench_telemetry] {name}: disabled {rec['disabled_s']}s "
            f"(control {rec['control_s']}s, noise {rec['noise_pct']}%), "
            f"enabled {rec['enabled_s']}s "
            f"(+{rec['enabled_overhead_pct']}%); telemetry calls "
            f"disabled {rec['disabled_telemetry_calls']}, "
            f"enabled {rec['enabled_telemetry_calls']}"
        )
        if rec["disabled_telemetry_calls"]:
            print(
                f"[bench_telemetry] FAIL: {name} disabled path made "
                f"{rec['disabled_telemetry_calls']} calls into repro.telemetry",
                file=sys.stderr,
            )
            failed = True
        if not rec["enabled_telemetry_calls"]:
            print(
                f"[bench_telemetry] FAIL: {name} enabled run made no calls "
                "into repro.telemetry: the call probe sees nothing",
                file=sys.stderr,
            )
            failed = True

    payload = {
        "bench": "telemetry",
        "smoke": args.smoke,
        "gate": "disabled_telemetry_calls == 0",
        "python": sys.version.split()[0],
        **_git_stamp(),
        "engines": records,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_telemetry] wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
