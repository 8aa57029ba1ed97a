"""Per-step metrics timelines for simulation runs.

A :class:`MetricsTimeline` is the sink both execution tiers feed while
a run is in flight:

* :class:`~repro.core.executor.GreedyExecutor` records from inside its
  one event loop (each recording call sits behind a single
  ``timeline is not None`` test on a local);
* :class:`~repro.core.dense.DenseExecutor` replays its time-bucketed
  event log through the timeline *after* the run (the bucket list **is**
  the full event history, so dense telemetry costs nothing during the
  timed simulation and cannot perturb it).

The recorded series reconcile exactly with the run's final
:class:`~repro.netsim.stats.SimStats`:

``sum(pebbles per step) == stats.pebbles``,
``sum(messages per step) == stats.messages``,
``sum(hops per step) == stats.pebble_hops``,
``sum(lost per step) == stats.lost_messages``,

checked by :meth:`MetricsTimeline.reconcile` (and enforced in
``tests/test_telemetry.py`` over the e1/e3/r1 experiment shapes).

Timestamps are simulated host steps.  A pebble recorded at step ``t``
completed at ``t`` (the processor was busy during ``(t-1, t]``); a hop
recorded at step ``s`` entered its link in slot ``s`` and occupies the
link until its arrival step.
"""

from __future__ import annotations

from repro.netsim.stats import latencies_from_completions, percentile
from repro.telemetry.spans import SpanLog


class MetricsTimeline:
    """Step-indexed counters for one simulation run.

    All hot-path methods are O(1) dictionary updates; series/summary
    methods materialise dense per-step arrays on demand.
    """

    __slots__ = (
        "pebbles",
        "redundant",
        "messages",
        "hops",
        "arrivals",
        "deliveries",
        "lost",
        "cancelled",
        "step_done",
        "faults",
        "spans",
        "positions",
        "_seen",
        "meta",
    )

    def __init__(self) -> None:
        self.pebbles: dict[int, int] = {}
        self.redundant: dict[int, int] = {}
        self.messages: dict[int, int] = {}
        self.hops: dict[int, int] = {}
        self.arrivals: dict[int, int] = {}
        self.deliveries: dict[int, int] = {}
        self.lost: dict[int, int] = {}
        self.cancelled: dict[int, int] = {}
        #: guest row -> host step its last pebble completed (the raced
        #: per-step latency source; see :meth:`step_latencies`)
        self.step_done: dict[int, int] = {}
        self.faults: list[tuple[int, str, str]] = []
        self.spans = SpanLog()
        self.positions: set[int] = set()
        self._seen: set[tuple[int, int]] = set()
        self.meta: dict = {}

    # -- hot-path recording (called by the executors) -------------------
    def pebble(self, t: int, pos: int, col: int, row: int) -> None:
        """One pebble completion at step ``t`` on host position ``pos``.

        ``(col, row)`` identifies the guest pebble; repeats (replica
        recomputation — the paper's redundancy) accumulate in the
        ``redundant`` series.
        """
        d = self.pebbles
        d[t] = d.get(t, 0) + 1
        key = (col, row)
        if key in self._seen:
            r = self.redundant
            r[t] = r.get(t, 0) + 1
        else:
            self._seen.add(key)
        self.positions.add(pos)
        sd = self.step_done
        if t > sd.get(row, 0):
            sd[row] = t

    def send(self, t_inject: int, t_arrive: int) -> None:
        """One link injection in slot ``t_inject``, arriving ``t_arrive``."""
        h = self.hops
        h[t_inject] = h.get(t_inject, 0) + 1
        a = self.arrivals
        a[t_arrive] = a.get(t_arrive, 0) + 1

    def message(self, t: int, n: int = 1) -> None:
        """``n`` end-to-end messages launched at step ``t``."""
        m = self.messages
        m[t] = m.get(t, 0) + n

    def deliver(self, t: int, n: int = 1) -> None:
        """``n`` messages reached their final subscriber at step ``t``."""
        d = self.deliveries
        d[t] = d.get(t, 0) + n

    def drop(self, t: int, n: int = 1) -> None:
        """``n`` messages lost to a fault at step ``t``."""
        d = self.lost
        d[t] = d.get(t, 0) + n

    def cancel(self, t: int, n: int = 1) -> None:
        """``n`` raced sends cancelled at step ``t`` (racing policy:
        the subscriber already advanced past the pebble, so the message
        is abandoned before consuming a link slot)."""
        d = self.cancelled
        d[t] = d.get(t, 0) + n

    def fault(self, t: int, kind: str, detail: str = "") -> None:
        """A fault/recovery state change (crash, retry, recovery...)."""
        self.faults.append((t, kind, detail))

    # -- derived series --------------------------------------------------
    @property
    def horizon(self) -> int:
        """Largest step with any recorded activity."""
        out = 0
        for d in (
            self.pebbles,
            self.messages,
            self.hops,
            self.arrivals,
            self.deliveries,
            self.lost,
            self.cancelled,
        ):
            if d:
                m = max(d)
                if m > out:
                    out = m
        for t, _k, _d in self.faults:
            if t > out:
                out = t
        return out

    def series(self, name: str) -> list[int]:
        """Dense per-step array (index 0..horizon) of one counter.

        Names: ``pebbles``, ``redundant``, ``messages``, ``hops``,
        ``arrivals``, ``deliveries``, ``lost``, ``cancelled``, plus the
        derived ``in_flight`` (pebbles occupying links) and ``stalled``
        (active positions not computing).
        """
        if name == "in_flight":
            return self.in_flight()
        if name == "stalled":
            return self.stalled()
        if name not in (
            "pebbles",
            "redundant",
            "messages",
            "hops",
            "arrivals",
            "deliveries",
            "lost",
            "cancelled",
        ):
            raise KeyError(f"unknown series {name!r}")
        d = getattr(self, name)
        out = [0] * (self.horizon + 1)
        for t, v in d.items():
            out[t] = v
        return out

    def in_flight(self) -> list[int]:
        """Pebbles occupying links at each step (injected, not arrived).

        This is the link-occupancy series: the visual of latency being
        *hidden* is this series staying high while ``pebbles`` also
        stays high — computation and communication overlapped.
        """
        horizon = self.horizon
        out = [0] * (horizon + 1)
        level = 0
        hops = self.hops
        arrivals = self.arrivals
        for t in range(horizon + 1):
            level += hops.get(t, 0)
            level -= arrivals.get(t, 0)
            out[t] = level
        return out

    def stalled(self) -> list[int]:
        """Active-but-idle guest steps: per step, how many positions
        that computed at least once were *not* computing.

        A position completing a pebble at ``t`` was busy during
        ``(t-1, t]``, so ``stalled[t] = |positions| - pebbles[t]``
        (clamped at 0) for ``1 <= t <= horizon``.
        """
        procs = len(self.positions)
        peb = self.pebbles
        out = [0] * (self.horizon + 1)
        for t in range(1, len(out)):
            busy = peb.get(t, 0)
            out[t] = procs - busy if busy < procs else 0
        return out

    # -- totals / reconciliation ----------------------------------------
    def totals(self) -> dict:
        """Sum of every per-step series (the SimStats-facing view)."""
        return {
            "pebbles": sum(self.pebbles.values()),
            "redundant": sum(self.redundant.values()),
            "messages": sum(self.messages.values()),
            "hops": sum(self.hops.values()),
            "deliveries": sum(self.deliveries.values()),
            "lost": sum(self.lost.values()),
            "cancelled": sum(self.cancelled.values()),
            "stalled": sum(self.stalled()),
            "faults": len(self.faults),
        }

    def step_latencies(self) -> list[int]:
        """Per-guest-row latencies derived from the pebble stream.

        Row ``t``'s completion time is the host step its last pebble
        (any replica, any epoch) finished; consecutive differences are
        the per-step latency distribution whose tail the racing and
        stealing policies target.  Empty before any pebble is recorded.
        """
        sd = self.step_done
        if not sd:
            return []
        done = [0] * (max(sd) + 1)
        for row, t in sd.items():
            done[row] = t
        return latencies_from_completions(done)

    def reconcile(self, stats) -> dict:
        """Check the per-step counters sum to a run's ``SimStats``.

        Returns the totals dict on success; raises ``ValueError`` naming
        the first mismatching counter otherwise.  ``redundant`` is only
        checked on runs without recoveries (an epoch restart redefines
        ``stats.redundant`` against the *surviving* guest, while the
        timeline saw every epoch's work).
        """
        totals = self.totals()
        checks = [
            ("pebbles", totals["pebbles"], stats.pebbles),
            ("messages", totals["messages"], stats.messages),
            ("hops", totals["hops"], stats.pebble_hops),
            ("lost", totals["lost"], stats.lost_messages),
            (
                "cancelled",
                totals["cancelled"],
                stats.extras.get("cancelled_messages", 0),
            ),
        ]
        if stats.recoveries == 0:
            checks.append(("redundant", totals["redundant"], stats.redundant))
        for name, have, want in checks:
            if have != want:
                raise ValueError(
                    f"timeline/{name} = {have} does not reconcile with "
                    f"SimStats ({want})"
                )
        samples = (
            stats.step_latency_samples()
            if hasattr(stats, "step_latency_samples")
            else []
        )
        if samples and self.step_done:
            mine = self.step_latencies()
            if mine != list(samples):
                raise ValueError(
                    "timeline/step_latencies does not reconcile with the "
                    f"SimStats step_latency distribution: {len(mine)} vs "
                    f"{len(samples)} sample(s) or differing values"
                )
        return totals

    # -- presentation ----------------------------------------------------
    def summary(self) -> dict:
        """Headline numbers for reports."""
        totals = self.totals()
        horizon = self.horizon
        peb = totals["pebbles"]
        procs = len(self.positions)
        out = {
            "horizon": horizon,
            "positions_active": procs,
            **{k: v for k, v in totals.items() if k != "stalled"},
            "stalled_steps": totals["stalled"],
            "mean_utilization": (
                round(peb / (horizon * procs), 4) if horizon and procs else 0.0
            ),
        }
        inflight = self.in_flight()
        out["peak_in_flight"] = max(inflight, default=0)
        lats = self.step_latencies()
        out["step_p50"] = percentile(lats, 0.50)
        out["step_p95"] = percentile(lats, 0.95)
        out["step_p99"] = percentile(lats, 0.99)
        return out

    def ascii_timeline(
        self,
        series: tuple[str, ...] = ("pebbles", "in_flight"),
        width: int = 64,
        height: int = 12,
        bucket: int | None = None,
    ) -> str:
        """Render selected series as an ASCII line plot (linear axes).

        Steps are averaged into ``bucket``-sized bins (default: sized so
        ~``width`` bins span the run) and plotted with
        :func:`repro.analysis.asciiplot.ascii_plot`.
        """
        from repro.analysis.asciiplot import ascii_plot

        horizon = self.horizon
        if horizon == 0:
            return "(empty timeline)"
        if bucket is None:
            bucket = max(1, (horizon + 1) // width)
        n_bins = (horizon + bucket) // bucket
        xs = [b * bucket for b in range(n_bins)]
        plotted: dict[str, list[float]] = {}
        for name in series:
            dense = self.series(name)
            binned = [0.0] * n_bins
            for t, v in enumerate(dense):
                binned[t // bucket] += v
            plotted[name] = [v / bucket for v in binned]
        return ascii_plot(
            [x + 1 for x in xs],  # keep log-safe even though axes are linear
            plotted,
            width=width,
            height=height,
            logx=False,
            logy=False,
            title=f"per-step activity (bucket={bucket} steps)",
        )

    # -- checkpoint snapshot / restore -----------------------------------
    _COUNTERS = (
        "pebbles",
        "redundant",
        "messages",
        "hops",
        "arrivals",
        "deliveries",
        "lost",
        "cancelled",
        "step_done",
    )

    def snapshot(self) -> dict:
        """Lossless mid-run snapshot (JSON-safe, unlike :meth:`as_dict`).

        Captures raw internal state — sparse counter dicts, the
        redundancy dedup set, open spans — so that
        :meth:`load_snapshot` followed by feeding the remaining suffix
        of a run reproduces the uninterrupted timeline exactly.  Used
        by the executor checkpoints (:mod:`repro.core.checkpoint`).
        """
        return {
            "counters": {
                name: sorted(getattr(self, name).items())
                for name in self._COUNTERS
            },
            "faults": [list(f) for f in self.faults],
            "positions": sorted(self.positions),
            "seen": sorted(map(list, self._seen)),
            "meta": dict(self.meta),
            "spans": self.spans.as_dicts(),
        }

    def load_snapshot(self, snap: dict) -> None:
        """Reset this timeline to a :meth:`snapshot` state in place."""
        for name in self._COUNTERS:
            d = getattr(self, name)
            d.clear()
            d.update((int(t), v) for t, v in snap["counters"].get(name, []))
        self.faults = [tuple(f) for f in snap.get("faults", [])]
        self.positions = set(snap.get("positions", []))
        self._seen = set(map(tuple, snap.get("seen", [])))
        self.meta = dict(snap.get("meta", {}))
        self.spans = SpanLog.from_dicts(snap.get("spans", []))

    def as_dict(self) -> dict:
        """JSON-ready dump: summary, per-step series, faults, spans."""
        return {
            "summary": self.summary(),
            "series": {
                name: self.series(name)
                for name in (
                    "pebbles",
                    "redundant",
                    "messages",
                    "hops",
                    "deliveries",
                    "lost",
                    "cancelled",
                    "in_flight",
                    "stalled",
                )
            },
            "faults": [list(f) for f in self.faults],
            "spans": self.spans.as_dicts(),
            "meta": dict(self.meta),
        }
