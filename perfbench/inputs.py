"""Seeded inputs for the three workloads.

Everything a workload feeds the program is generated here from the
workload seed alone, so the same seed gives the same grid, arrival
schedule, key popularity and edit stream on every machine.  Nothing in
this module imports the simulator except :func:`edit_stream`, which
builds on the ``repro.experiments.x5`` demo configs.
"""

from __future__ import annotations

import numpy as np

#: array-host presets the sweep draws OVERLAP runs from
PRESETS = ("campus", "wan", "mixed-now")

#: (n, steps) of the delta workload's base configs
EDIT_SIZES = ((24, 8), (24, 12), (32, 8), (32, 12), (40, 8), (40, 12))

#: one-knob edits per base that the delta workload picks from
EDIT_POOL = 24

#: FaultPlan.random rates of the faulted sweep slice (per node / per
#: link over the plan horizon); with ``min_copies=2`` every plan of
#: seeds 0-199 and the held-out seed recovers
FAULT_RATES = {
    "node_crash_rate": 0.01,
    "link_outage_rate": 0.02,
    "jitter_rate": 0.04,
    "drop_rate": 0.02,
}


def sweep_grid(seed: int, size: int) -> list[dict]:
    """A shuffled grid of ``size`` sweep configs.

    The grid's shape is the same for every seed, so every seed costs
    about the same: 1/8 faulted runs and 1/8 racing runs on the array
    presets at ``min_copies=2``, 3/20 guest rings, 1/10 mesh
    ``HostGraph`` hosts and plain OVERLAP for the rest, with sizes
    spread evenly over each kind's range and the other knobs cycled.
    The preset hosts are the same for every seed too: drawn per seed,
    their delays moved the grid's summed OVERLAP makespan by up to a
    quarter, and the CPU a pass took with it (correlation 0.71 over ten
    seeds).  The seed draws the fault plans, the mesh link delays and
    the run order.
    """
    rng = np.random.default_rng([seed, 1])
    hosts = np.random.default_rng(1)
    counts = {
        "faulted": size // 8,
        "racing": size // 8,
        "ring": size * 3 // 20,
        "mesh": size // 10,
    }
    counts["overlap"] = size - sum(counts.values())
    grid = [
        _sweep_config(kind, i, count, rng, hosts)
        for kind, count in counts.items()
        for i in range(count)
    ]
    out = []
    for i, j in enumerate(rng.permutation(len(grid))):
        cfg = grid[int(j)]
        cfg["id"] = i
        out.append(cfg)
    return out


def _spread(lo: int, hi: int, i: int, count: int) -> int:
    """The ``i``-th of ``count`` evenly spaced integers in ``[lo, hi]``."""
    return lo + (i * (hi - lo)) // max(1, count - 1)


def _sweep_config(kind: str, i: int, count: int, rng, hosts) -> dict:
    if kind == "mesh":
        return {
            "kind": "mesh",
            "rows": 6 + i % 4,
            "cols": 6 + (i // 4) % 4,
            "max_delay": 2 + i % 7,
            "delay_seed": int(rng.integers(0, 2**31)),
        }
    cfg = {
        "kind": kind,
        "preset": PRESETS[i % len(PRESETS)],
        "host_seed": int(hosts.integers(0, 2**31)),
    }
    if kind == "ring":
        cfg.update(n=_spread(32, 64, i, count), copies=1 + (i // 3) % 2)
        return cfg
    cfg.update(
        n=_spread(64, 128, i, count),
        c=(3.0, 4.0, 5.0)[(i // 3) % 3],
        block=1 + (i // 9) % 2,
    )
    if kind == "faulted":
        cfg.update(min_copies=2, fault_seed=int(rng.integers(0, 2**31)))
    elif kind == "racing":
        cfg.update(min_copies=2, policy="racing")
    return cfg


def poisson_schedule(seed: int, rate: float, seconds: float) -> list[float]:
    """Due times (seconds from the start) of a Poisson arrival process
    at ``rate`` per second over ``[0, seconds)``, conditioned on
    ``round(rate * seconds)`` arrivals: sorted uniform times, so every
    seed offers the same number of requests."""
    rng = np.random.default_rng([seed, 2])
    due = np.sort(rng.uniform(0.0, seconds, size=round(rate * seconds)))
    return [float(t) for t in due]


def burst_times(seed: int, bursts: int, seconds: float) -> list[float]:
    """Due times of ``bursts`` bursts of duplicate requests, uniform
    over ``[0, seconds)``."""
    rng = np.random.default_rng([seed, 8])
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=bursts))


def zipf_picks(seed: int, count: int, universe: int, exponent: float) -> list[int]:
    """``count`` key ranks in ``[0, universe)`` with Zipf popularity:
    rank ``r`` has weight ``1 / (r + 1) ** exponent``.

    The ranks are the distribution's ``count`` evenly spaced quantiles,
    in seeded order.  Every seed asks for the same keys as often, so it
    computes the same misses; drawn independently, the number of
    distinct rare keys, each a miss, varied by a quarter between seeds.
    """
    rng = np.random.default_rng([seed, 3])
    weights = 1.0 / np.arange(1, universe + 1, dtype=float) ** exponent
    cdf = np.cumsum(weights / weights.sum())
    quantiles = (np.arange(count) + 0.5) / count
    picks = np.minimum(np.searchsorted(cdf, quantiles, side="right"), universe - 1)
    return [int(r) for r in rng.permutation(picks)]


def client_picks(seed: int, count: int, clients: int) -> list[str]:
    """Client names, uniform over ``clients`` simulated users."""
    rng = np.random.default_rng([seed, 4])
    return [f"user{int(c)}" for c in rng.integers(0, clients, size=count)]


def service_config(rank: int) -> dict:
    """The ``overlap_point`` config behind key rank ``rank``.

    Sizes cycle with the rank so popular and rare keys cost the same
    on average; the ``rep`` nonce makes every rank a distinct key.
    """
    return {
        "n": (24, 32, 40, 48)[rank % 4],
        "steps": (6, 8, 10)[(rank // 4) % 3],
        "delay": 1 + (rank // 12) % 2,
        "rep": rank // 24,
    }


def edit_stream(seed: int, per_kind: int) -> tuple[list[dict], list[dict]]:
    """``(base configs, edits)`` for the delta workload.

    The bases are ``repro.experiments.x5.base_config`` runs of every
    size in :data:`EDIT_SIZES`, the same for every seed so that the cost
    of a pass does not depend on it.  The seed picks, for each base and
    each of ``x5.edit_grid``'s three edit kinds (a late fault moved, a
    recovery knob changed, the horizon extended), ``per_kind`` edits out
    of :data:`EDIT_POOL`, and the order the edits arrive in.  Every edit
    is distinct, so each is a cache miss that a delta neighbour can
    serve.
    """
    from repro.experiments.x5 import base_config, edit_grid

    rng = np.random.default_rng([seed, 5])
    bases = [base_config(n, steps) for n, steps in EDIT_SIZES]
    edits = []
    for base in bases:
        pool = edit_grid(base, k=EDIT_POOL)
        for kind in range(3):
            idx = rng.choice(range(kind, EDIT_POOL, 3), size=per_kind, replace=False)
            edits.extend(pool[int(i)] for i in idx)
    order = rng.permutation(len(edits))
    return bases, [edits[int(i)] for i in order]
