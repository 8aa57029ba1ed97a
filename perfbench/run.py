"""Run one workload of the OVERLAP benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs the same
work untraced and traced and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: ``attempted``
and ``failed`` count operations (configs, edits or requests), and
``correct`` is false when any check failed, an operation's or the
run's own (ledger reconciliation, generator lateness, trace checks).
A full report
(provenance, checks, sample counts) goes to
``.perfbench/results/<workload>-seed<seed>-trace<mode>.json`` and the
traced run's spans to ``...-spans.json`` beside it.  The exit code is 0
only when every output checked out.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

#: set-ups per timed run, each in a fresh process
SETUP_SAMPLES = 3
#: largest relative gap allowed between a root span and the self
#: times of its tree
TRACE_TOLERANCE = 0.01


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def provenance(args) -> dict:
    import numpy

    design = json.loads((HERE / "design.json").read_text())
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=ROOT, capture_output=True, text=True, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.CalledProcessError):
            sha = dirty = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "held_out_seed": design["held_out_seed"],
    }


def children_cpu_s() -> float:
    """CPU seconds used by the waited-for children of this process and
    by their own waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_samples(args) -> tuple[list[float], list[float], list[float]]:
    """``(CPU seconds, wall seconds, probes)`` of set-ups in fresh
    processes, with the probes taken before, between and after them.

    The CPU seconds cover the whole process: interpreter start,
    imports, pool spawn, input generation, cache seeding and the pool's
    shutdown.
    """
    from perfbench.probe import Prober

    cpus, walls = [], []
    with Prober() as prober:
        probes = [prober()]
        for _ in range(SETUP_SAMPLES):
            cpu0 = children_cpu_s()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
            cpus.append(children_cpu_s() - cpu0)
            probes.append(prober())
            walls.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return cpus, walls, probes


def trace_failures(out) -> list[str]:
    failures = []
    rec = out["reconcile"]
    if rec["max_rel_err"] > TRACE_TOLERANCE:
        failures.append(
            f"span trees do not reconcile: max relative gap {rec['max_rel_err']:.4f} "
            f"> {TRACE_TOLERANCE}"
        )
    for what, got, want in out["expect"]:
        if got != want:
            failures.append(f"trace check {what}: {got} != {want}")
    # A target the program no longer has would report its layer as 0,
    # which reads as a gain.
    failures.extend(f"trace target missing from the program: {t}" for t in out["missing"])
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = OUT / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, work)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = workload.trace() if args.trace else workload.measure()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    failures = list(out["failures"])
    if args.trace:
        failures += trace_failures(out)
        wanted = spec["per_layer"]
        values = {m["name"]: out["metrics"].get(m["name"], 0) for m in wanted}
    else:
        from perfbench.probe import ref_cpu_s

        cpus, walls, probes = setup_samples(args)
        out["metrics"]["setup_s"] = statistics.median(
            ref_cpu_s(c, probes[k], probes[k + 1]) for k, c in enumerate(cpus)
        )
        out["detail"].update(setup_cpu_s=cpus, setup_wall_s=[setup_s] + walls, setup_probe_s=probes)
        wanted = spec["end_to_end"]
        values = {m["name"]: out["metrics"][m["name"]] for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": provenance(args),
        "metrics": metrics,
        "failures": failures,
        "detail": out.get("detail"),
    }
    if args.trace:
        report.update(
            reconcile=out["reconcile"],
            expect=out["expect"],
            missing_targets=out["missing"],
        )
        stem.with_name(stem.name.replace("-trace1", "-spans.json")).write_text(
            json.dumps(out["spans"])
        )
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, sort_keys=True))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for line in failures[:20]:
        print(f"FAIL: {line}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": out["attempted"],
                "failed": min(out["failed"], out["attempted"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
