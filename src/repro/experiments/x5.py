"""X5 — incremental re-simulation demo (delta-driven sweeps).

A scripted faulted run whose config carries every simulation input in
structured form — horizon, fault-plan spec, recovery-policy knobs — so
each knob is individually delta-eligible.  Re-sweeping after a
one-knob edit (moving a fault, tweaking ``restart_penalty``, extending
the horizon) restores a checkpoint from the cached neighbour and
replays only the suffix; the rows are bit-identical to a full
recompute (each carries a digest over the final pebble values to make
"identical" checkable at a glance).

``benchmarks/bench_delta.py`` and ``tests/test_delta.py`` reuse
:func:`base_config` / :func:`edit_grid` so the measured and the gated
grids are the same shape as this demo.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.overlap import simulate_overlap
from repro.delta import (
    DeltaSpec,
    delta_task,
    fault_events_rule,
    horizon_rule,
    outcome_from_overlap,
    policy_rule,
)
from repro.experiments.base import ExperimentResult
from repro.machine.host import HostArray
from repro.netsim.faults import FaultPlan, RecoveryPolicy
from repro.runner import sweep


def base_plan(n: int, horizon: int) -> FaultPlan:
    """Scripted plan: one crash plus link trouble, all in the second
    half of ``[0, horizon)`` so plenty of checkpoints land before any
    edit's blast radius."""
    mid = max(2, n // 2)
    plan = (
        FaultPlan.empty()
        .crash(mid, int(horizon * 0.55))
        .link_down(max(0, mid - 2), int(horizon * 0.65), duration=8)
        .jitter(min(n - 2, mid + 3), int(horizon * 0.70), duration=6, extra=3)
        .drop(min(n - 2, mid + 1), int(horizon * 0.75))
    )
    # Fixed declared window, deliberately larger than any horizon the
    # demo sweeps: the spec's own horizon must not vary with ``steps``
    # (a changed declared horizon re-filters every event and would make
    # the edit delta-ineligible).
    return plan.declare_horizon(max(4 * horizon, 64))


def base_config(
    n: int = 24, steps: int = 10, verify: bool = True, horizon: int | None = None
) -> dict:
    """The demo's base sweep config (all simulation inputs, structured)."""
    if horizon is None:
        # Uniform host, block 1: makespan scales like steps * n-ish;
        # a rough horizon keeps the scripted faults mid-run.
        horizon = 6 * steps
    return {
        "n": n,
        "steps": steps,
        "faults": base_plan(n, horizon).to_spec(),
        "policy": {
            "retry_factor": 4.0,
            "max_retries": 32,
            "restart_penalty": 8,
            "watchdog_factor": 8.0,
        },
        "verify": verify,
    }


def edit_grid(base: dict, k: int = 4) -> list[dict]:
    """``k`` one-knob edits of ``base``, each within a rule's blast
    radius: shifted late-fault times, a recovery-policy tweak, and a
    horizon extension."""
    out = []
    for i in range(k):
        cfg = json.loads(json.dumps(base))  # deep copy, JSON-safe
        which = i % 3
        if which == 0:  # move the latest fault event a little later
            ev = max(cfg["faults"]["events"], key=lambda e: e["time"])
            ev["time"] += 2 + i
        elif which == 1:  # recovery knob consulted only after a fault
            cfg["policy"]["restart_penalty"] = 8 + 2 * (i + 1)
        else:  # extend the horizon; divergence bounded by first_top_t
            cfg["steps"] += 1 + i // 3
        out.append(cfg)
    return out


def _digest(value_digests: dict) -> str:
    blob = json.dumps(sorted((list(k), v) for k, v in value_digests.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _edit_eval(cfg: dict, resume_from=None, checkpoint_stride=None):
    host = HostArray.uniform(cfg["n"])
    plan = FaultPlan.from_spec(cfg["faults"])
    policy = RecoveryPolicy(**cfg["policy"])
    res = simulate_overlap(
        host,
        steps=cfg["steps"],
        min_copies=2,
        faults=plan,
        recovery=policy,
        verify=cfg["verify"],
        checkpoint_stride=checkpoint_stride,
        resume_from=resume_from,
    )
    stats = res.exec_result.stats
    row = {
        "n": cfg["n"],
        "steps": cfg["steps"],
        "faults": len(plan),
        "makespan": stats.makespan,
        "recoveries": stats.recoveries,
        "retries": stats.retries,
        "lost msgs": stats.lost_messages,
        "digest": _digest(res.exec_result.value_digests),
        "verified": res.verified,
    }
    return row, res


def _ckpt_stride(cfg: dict) -> int:
    # Tight stride: the demo's policy/horizon edits have blast radii
    # near the first fault (~0.55 * horizon), so a restore point must
    # exist well before mid-run.
    return max(8, 2 * cfg["steps"])


def _edit_capture(cfg: dict):
    row, res = _edit_eval(cfg, checkpoint_stride=_ckpt_stride(cfg))
    return outcome_from_overlap(res, row)


def _edit_resume(cfg: dict, ck):
    row, res = _edit_eval(cfg, resume_from=ck, checkpoint_stride=_ckpt_stride(cfg))
    return outcome_from_overlap(res, row)


@delta_task(
    DeltaSpec(
        rules={
            "steps": horizon_rule,
            "faults": fault_events_rule,
            "policy": policy_rule,
        },
        capture=_edit_capture,
        resume=_edit_resume,
    )
)
def _edit_point(cfg: dict) -> dict:
    """One scripted-fault grid point; every simulation input sits in
    the config under a delta rule."""
    return _edit_eval(cfg)[0]


def run(quick: bool = True) -> ExperimentResult:
    """Sweep the base config plus its one-knob edits, twice: the second
    pass is served from cache/delta when a cache dir is active."""
    from repro.runner import active_runner

    base = base_config(n=24 if quick else 48, steps=10 if quick else 14)
    edits = edit_grid(base, k=3 if quick else 6)

    # Seed the base point first, in its own sweep: the edit sweep then
    # finds it as a cached neighbour and replays only suffixes (when a
    # cache dir is active; uncached runs compute everything fully).
    rows = sweep(_edit_point, [base])
    rows += sweep(_edit_point, edits)
    delta_hits = active_runner().last_delta_hits
    rows2 = sweep(_edit_point, [base] + edits)  # warm pass: plain hits

    return ExperimentResult(
        "X5",
        "Incremental re-simulation - one-knob edits replay only suffixes",
        rows,
        summary={
            "warm pass identical": rows == rows2,
            "distinct digests (edits change outcomes)": len(
                {r["digest"] for r in rows}
            ),
            "delta suffix-replays (needs cache dir)": delta_hits,
            "every run verified": all(r["verified"] for r in rows),
        },
    )
