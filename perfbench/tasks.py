"""The sweep task the ``sweep-cold`` workload maps.

A runner task must be a module-level function that worker processes
import by name.  :func:`sweep_point` builds the host a grid config
describes, runs the matching front-end with ``verify=True`` and returns
the run's simulated counts together with the wall time of the call.
With ``"trace": 1`` in the config it also records spans (see
:mod:`perfbench.tracing`) and returns them with the row, which is how
spans from pool workers reach the parent.
"""

from __future__ import annotations

import time

from perfbench import tracing
from perfbench.inputs import FAULT_RATES

#: FaultPlan horizon of the faulted slice: events land in the first 64
#: host steps, and the slice's fault-free runs take 31 to ~1500 steps
#: (median ~100), so most events hit a running execution
FAULT_HORIZON = 64

#: this worker process's tracer while a traced pass runs: the runner
#: calls the task with nothing but its config
_tracer = None


def sweep_point(cfg: dict) -> dict:
    """Run one grid config; see :func:`perfbench.inputs.sweep_grid`."""
    global _tracer
    if cfg.get("trace"):
        if _tracer is None:
            _tracer = tracing.Tracer()
            _tracer.install()
        _tracer.spans.clear()
        token = tracing.REQUEST.set(cfg["id"])
    elif _tracer is not None:
        _tracer.uninstall()
        _tracer = None
    t0 = time.perf_counter()
    stats, verified = _run(cfg)
    wall = time.perf_counter() - t0
    row = {
        "id": cfg["id"],
        "kind": cfg["kind"],
        "verified": verified,
        "wall_ms": 1e3 * wall,
        **sim_counts(stats),
    }
    if cfg.get("trace"):
        tracing.REQUEST.reset(token)
        row["spans"] = [list(s) for s in _tracer.spans]
    return row


def sim_counts(stats) -> dict:
    """The simulated counts a row carries (identical on every repeat)."""
    extras = stats.extras
    return {
        "makespan": stats.makespan,
        "pebbles": stats.pebbles,
        "redundant": stats.redundant,
        "messages": stats.messages,
        "pebble_hops": stats.pebble_hops,
        "retries": stats.retries,
        "cancelled_messages": int(extras.get("cancelled_messages", 0)),
        "raced_wins": int(extras.get("raced_wins", 0)),
        "raced_losses": int(extras.get("raced_losses", 0)),
    }


def _run(cfg: dict):
    # Front-ends are looked up on their modules at call time, so the
    # tracer's patches apply.
    from repro.core import overlap, ring
    from repro.machine.host import HostArray
    from repro.netsim.faults import FaultPlan
    from repro.topology import generators
    from repro.topology.presets import get_preset

    kind = cfg["kind"]
    if kind == "mesh":
        import numpy as np

        rows, cols = cfg["rows"], cfg["cols"]
        edges = rows * (cols - 1) + cols * (rows - 1)
        rng = np.random.default_rng(cfg["delay_seed"])
        delays = [int(d) for d in rng.integers(1, cfg["max_delay"] + 1, size=edges)]
        res = overlap.simulate_overlap_on_graph(
            generators.mesh_host(rows, cols, delays), verify=True
        )
        return res.exec_result.stats, res.verified
    host = get_preset(cfg["preset"], n=cfg["n"], seed=cfg["host_seed"])
    if not isinstance(host, HostArray):
        raise ValueError(f"preset {cfg['preset']!r} is not an array host")
    if kind == "ring":
        res = ring.simulate_ring(host, copies=cfg["copies"], verify=True)
        return res.exec_result.stats, res.verified
    faults = None
    if kind == "faulted":
        faults = FaultPlan.random(
            cfg["n"], cfg["fault_seed"], FAULT_HORIZON, **FAULT_RATES
        )
    res = overlap.simulate_overlap(
        host,
        c=cfg["c"],
        block=cfg["block"],
        min_copies=cfg.get("min_copies"),
        faults=faults,
        policy=cfg.get("policy"),
        verify=True,
    )
    return res.exec_result.stats, res.verified

