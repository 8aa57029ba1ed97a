"""The host-speed probe that puts CPU times on a common scale.

On a shared host, CPU time per unit of work is not fixed: while other
tenants load the same physical cores, caches and memory, the same pass
of a workload takes up to half as much CPU time again, in phases that
last from seconds to minutes.  The benchmark therefore times a fixed
loop of its own right before and right after each timed repeat: an
interpreter part (dict, string and random-number work) and a memory
part (a gather over a table larger than a core's caches), because the
workloads slow down with both.  The loop runs in separate probe
processes, so it adds nothing to the benchmark's CPU time or resident
memory, and it is never the program, so a change to the program
cannot move it.

A repeat's CPU seconds are rescaled toward the reference speed at which
one loop takes :data:`REF_S`::

    cpu_ref = cpu * (REF_S / probe) ** elasticity

where ``probe`` is the geometric mean of the two bracketing probes.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import time

import numpy as np

#: CPU seconds one probe loop takes at the reference speed (about its
#: time on an unloaded 2-vCPU x86 host)
REF_S = 0.05

#: loops per probe; the probe is their median
TIMES = 5

#: how much of the probe's slowdown a workload's CPU time follows, unless
#: the workload sets its own.  On the 2-vCPU host the benchmark was
#: written on, log-log fits of CPU rate against the bracketing probes
#: gave about 0.45 on delta-edits and 0.35-0.47 on service-zipf, whose
#: CPU also holds file reads, thread hand-offs and the event loop, and
#: whose slowdowns followed the memory part of the loop (correlation
#: 0.76) more than the interpreter part (0.51); rescaling those two by
#: the whole probe over-corrected and widened their spread over seeds
ELASTICITY = 0.5

#: memory part: a gather of this many int64 values in a fixed random
#: order (16 MiB of table)
GATHER = 1 << 21

_table = None
_order = None


def _loop() -> int:
    global _table, _order
    rng = random.Random(7)
    table = {}
    acc = 0
    for i in range(30000):
        k = rng.randrange(512)
        table[k] = table.get(k, 0) + i
        acc += len(str(k))
    if _table is None:
        _table = np.arange(GATHER, dtype=np.int64)
        _order = np.random.default_rng(7).permutation(GATHER).astype(np.int32)
    return acc + int(_table[_order].sum())


def probe_cpu_s(times: int = TIMES) -> float:
    """Median CPU seconds of the probe loop in this process."""
    out = []
    for _ in range(times):
        t0 = time.process_time()
        _loop()
        out.append(time.process_time() - t0)
    return statistics.median(out)


class Prober:
    """``lanes`` probe processes that run the probe at the same time,
    as many as the workload keeps busy: the host's speed with every
    lane loaded."""

    def __init__(self, lanes: int = 1) -> None:
        self.procs = []
        for _ in range(lanes):
            self.procs.append(
                subprocess.Popen(
                    [sys.executable, __file__],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )

    def __call__(self, times: int = TIMES) -> float:
        """The probe, in CPU seconds per loop (mean over lanes)."""
        for proc in self.procs:
            proc.stdin.write(f"{times}\n")
            proc.stdin.flush()
        out = []
        for proc in self.procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("probe process ended early")
            out.append(float(line))
        return statistics.fmean(out)

    def close(self) -> None:
        """Stop the probe processes and wait for them."""
        for proc in self.procs:
            if proc.stdin and not proc.stdin.closed:
                proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []

    def __enter__(self) -> "Prober":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def ref_cpu_s(cpu_s: float, before: float, after: float, elasticity: float = ELASTICITY) -> float:
    """``cpu_s`` rescaled toward the reference speed, given the probes
    taken right before and right after it."""
    return cpu_s * (REF_S / math.sqrt(before * after)) ** elasticity


if __name__ == "__main__":
    # A probe process: one line with a loop count in, one line with the
    # median CPU seconds out, until standard input closes.
    _loop()
    for line in sys.stdin:
        print(probe_cpu_s(int(line)), flush=True)
