"""Per-layer metrics from a traced run's spans.

Times are self times summed over every span of a layer, in ms; the
kernel, netsim and ``sim.*`` counts come from the results the executor
spans returned.  A run that never enters a layer reports 0 for it.
"""

from __future__ import annotations

from perfbench.tracing import ATTRS, EXECUTOR_SPANS, ID, NAME, PARENT_ID, reconcile, self_times

#: metric -> the span names whose self time it sums
SELF_MS = {
    "setup.kill_ms": ("kill_and_label",),
    "setup.assign_ms": ("assign_databases", "steal_rebalance"),
    "setup.embed_ms": ("embed_linear_array",),
    "kernel.dense_ms": ("DenseExecutor.run",),
    "kernel.faulted_ms": ("FaultedDenseExecutor.run",),
    "kernel.greedy_ms": ("GreedyExecutor.run",),
    "verify.reference_ms": ("GuestArray.run_reference", "GuestRing.run_reference_full"),
    "verify.check_ms": ("verify_execution", "verify_ring_execution"),
    "delta.match_ms": ("SweepCache.delta_candidates", "_match_delta"),
    "delta.load_ckpt_ms": ("SweepCache.load_checkpoints",),
    "delta.restore_ms": ("DenseExecutor.restore",),
    "runner.prepare_ms": ("SweepRunner.prepare",),
    "runner.cache_get_ms": ("SweepCache.get",),
    "runner.cache_put_ms": ("SweepCache.put",),
    "runner.dispatch_wait_ms": ("SweepRunner.map", "SweepRunner.submit"),
    "service.lru_ms": ("LRUCache.get", "LRUCache.put"),
}

#: kernel metric prefix -> executor span name
KERNELS = {
    "kernel.dense": "DenseExecutor.run",
    "kernel.faulted": "FaultedDenseExecutor.run",
    "kernel.greedy": "GreedyExecutor.run",
}


def span_metrics(spans: list[list]) -> tuple[dict, dict]:
    """``(metrics, reconciliation)`` for one traced run's spans."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    for s in spans:
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + selfs[s[ID]]
    out = {
        metric: 1e3 * sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_MS.items()
    }

    # Count each run's work once: at the innermost executor span (a
    # faulted executor whose plan has no effect hands the run to the
    # dense one, and both return the same result).
    outer = {s[PARENT_ID] for s in spans if s[NAME] in EXECUTOR_SPANS}
    pebbles = {name: 0 for name in EXECUTOR_SPANS}
    net = {"messages": 0, "pebble_hops": 0, "cancelled_messages": 0, "retries": 0}
    wins = losses = makespans = redundant = 0
    for s in spans:
        if s[NAME] not in EXECUTOR_SPANS or s[ID] in outer or not s[ATTRS]:
            continue
        attrs = s[ATTRS]
        pebbles[s[NAME]] += attrs["pebbles"]
        for key in net:
            net[key] += attrs[key]
        wins += attrs["raced_wins"]
        losses += attrs["raced_losses"]
        makespans += attrs["makespan"]
        redundant += attrs["redundant"]
    for prefix, name in KERNELS.items():
        busy_s = out[f"{prefix}_ms"] / 1e3
        out[f"{prefix}_pebbles_per_s"] = pebbles[name] / busy_s if busy_s > 0 else 0.0
    out["kernel.dense_pebbles"] = pebbles["DenseExecutor.run"]
    for key, value in net.items():
        out[f"netsim.{key}"] = value
    out["racing.win_frac"] = wins / (wins + losses) if wins + losses else 0.0
    total = sum(pebbles.values())
    out["sim.pebbles"] = total
    out["sim.makespan_sum"] = makespans
    out["sim.redundancy_factor"] = total / (total - redundant) if total > redundant else 0.0
    out["delta.ckpt_bytes"] = _sum_bytes(spans, "SweepCache.load_checkpoints")
    out["runner.cache_bytes_written"] = _sum_bytes(spans, "SweepCache.put")
    rec = reconcile(spans, selfs)
    out["trace.spans"] = len(spans)
    out["trace.reconcile_err"] = rec["max_rel_err"]
    return out, rec


def _sum_bytes(spans: list[list], name: str) -> int:
    return sum(s[ATTRS]["bytes"] for s in spans if s[NAME] == name and s[ATTRS])


def span_counts(spans: list[list]) -> dict[str, int]:
    """Span name -> number of calls."""
    out: dict[str, int] = {}
    for s in spans:
        out[s[NAME]] = out.get(s[NAME], 0) + 1
    return out

