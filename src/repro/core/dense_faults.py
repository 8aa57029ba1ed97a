"""Dense tier 3: segmented vectorised execution under faults.

:class:`FaultedDenseExecutor` extends the fault-free dense skeleton of
:class:`~repro.core.dense.DenseExecutor` to runs with a non-empty
:class:`~repro.netsim.faults.FaultPlan`.  The compiled
:class:`~repro.netsim.faults.FaultTables` give a sorted timeline of
fault **boundaries** (crash times, outage/jitter window edges, drop arm
times — :meth:`FaultTables.boundaries`); between consecutive boundaries
the fault environment is time-invariant, so the run is replayed with the
same machinery as the fault-free tier — watermark arrays, time-bucketed
event lists, the inlined flat-integer link-slot rule, values decoupled
from timing — while the scalar fault handling (crashes, stall
detection/retry, epoch-restart recovery) runs only at the fault and
recovery events themselves.  At every boundary crossed (and at each
epoch resume) the executor snapshots its complete integer state as a
reusable :class:`ExecutorCheckpoint` — the same snapshot the roadmap's
incremental re-simulation needs.

Bit-identity with the greedy engine is preserved the same way the
fault-free tier preserves it: the bucket sweep replays the exact
``(time, seq)`` event order of a faulted :meth:`GreedyExecutor.run`,
including the per-destination injection order of faulty sends, the
one-shot drop consumption order, the per-directed-link monotone arrival
clamp, retry re-subscription order, and recovery epoch restarts.
Telemetry is fed *inline* (unlike the fault-free post-pass): on a
faulted run the greedy loop records ready-time injections and in-flight
drops that cannot be reconstructed from the surviving buckets alone, so
the faulted tier mirrors its instrumentation call-for-call instead.

Scheduling decisions never read pebble *values* — fault timing included
— so values are still computed once, vectorised, from the final epoch's
guest (an epoch restart re-derives every database from scratch, hence
the final epoch alone determines all digests and replicas).

``tests/test_dense_faults.py`` asserts bit-identity (stats, digests,
replicas, telemetry timelines, deadlock diagnostics) differentially
against the greedy engine over faulted r1/chaos-style grids on line,
ring and graph topologies.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right

import numpy as np

from repro.core.checkpoint import ExecutorCheckpoint
from repro.core.dense import _VEC_MIN_COLS, DenseExecutor
from repro.netsim.faults import RecoveryPolicy
from repro.netsim.stats import SimStats, latencies_from_completions

__all__ = ["ExecutorCheckpoint", "FaultedDenseExecutor"]

# Bucket-event kinds (mirrors the greedy fault-mode event kinds).
_DONE = 0
_MSG = 1
_CRASH = 2
_RESUME = 3
_CHECK = 4
_REQ = 5
_WATCH = 6


class FaultedDenseExecutor(DenseExecutor):
    """Segmented dense executor for faulted runs (see module docstring).

    Construction mirrors :class:`~repro.core.executor.GreedyExecutor`'s
    fault surface: ``faults`` (a non-empty plan), ``policy`` (default
    :class:`~repro.netsim.faults.RecoveryPolicy`) and ``reassign`` (the
    mid-run reconfiguration hook).  ``dep_map`` guests are supported for
    link-level faults; node crashes require the standard array
    dependency structure, exactly like the greedy engine.
    """

    def __init__(
        self,
        host,
        assignment,
        program,
        steps,
        bandwidth=None,
        dep_map=None,
        col_label=None,
        telemetry=None,
        faults=None,
        policy=None,
        reassign=None,
        checkpoint_stride=None,
    ) -> None:
        super().__init__(
            host,
            assignment,
            program,
            steps,
            bandwidth,
            dep_map=dep_map,
            col_label=col_label,
            telemetry=telemetry,
            checkpoint_stride=checkpoint_stride,
        )
        self.faults = faults
        self.policy = policy or RecoveryPolicy()
        self.reassign = reassign
        self._epoch = 0
        if faults is not None and not faults.is_empty:
            self._fault_tables = faults.compile(host)
            if dep_map is not None and self._fault_tables.crash_times:
                raise ValueError(
                    "node-crash injection supports the standard array "
                    "dependency structure only (dep_map must be None); "
                    "link-level faults are fine"
                )
        else:
            self._fault_tables = None
        #: Dead-set snapshot at the last reconfiguration (None before
        #: the first one); lets a restore re-derive the assignment.
        self._reassign_dead: list[int] | None = None

    def _expected_ckpt_kind(self) -> str:
        tables = self._fault_tables
        if tables is None or tables.is_effect_free:
            return "dense"
        return "faulted"

    def run(self):
        tables = self._fault_tables
        if tables is None or tables.is_effect_free:
            # Effect-free plan (all events at/after the declared
            # horizon): the plain fault-free dense path, bit-identical
            # to the greedy engine's identical elision.
            return super().run()
        return self._run_faulted()

    # -- recovery plumbing (mirrors GreedyExecutor) ----------------------
    def _default_reassign(self, dead: frozenset):
        from repro.core.assignment import assign_databases
        from repro.core.killing import kill_and_label

        killing = kill_and_label(self.host, forced_dead=set(dead))
        return assign_databases(killing, self.assignment.block, min_copies=2)

    def _watch_window(self) -> int:
        base = self.policy.timeout(self.host.total_delay)
        return max(32, int(self.policy.watchdog_factor * base))

    def _stream_timeout(self, p: int, q: int) -> int:
        # self._load is the epoch-cached assignment.load(): the load is
        # invariant between reassignments but O(n * m) to recompute, and
        # this runs once per stream check.
        return self.policy.timeout(self.host.distance(p, q) + self._load)

    def _deadlock(self, message: str):
        """Same diagnostics as the greedy engine, read off the
        watermark arrays (same tuple order: own columns lo..hi per used
        position; ext columns in sorted-needed order)."""
        from repro.core.executor import SimulationDeadlock

        T = self.T
        pending = []
        undelivered = []
        for p in self.used:
            w = self._W_of[p]
            lo = self._lo_of[p]
            for i in range(self._k_of[p]):
                wt = int(w[i])
                if wt < T:
                    pending.append((p, lo + i, wt))
        for p in self.used:
            w = self._W_of[p]
            idx = self._ext_idx[p]
            for c in self._ext_cols[p]:
                wt = int(w[idx[c]])
                if wt < T:
                    undelivered.append((p, c, wt))
        return SimulationDeadlock(
            message,
            pending=pending,
            undelivered=undelivered,
            fault_log=list(self._fault_log),
        )

    def _build_epoch_state(self) -> None:
        """(Re)build the watermark arrays for the current assignment —
        the same layout as the fault-free skeleton, kept on ``self`` so
        fault handlers and checkpoints can reach it across epochs."""
        T = self.T
        n = self.host.n
        dep_map = self.dep_map
        lo_of = [0] * n
        k_of = [0] * n
        W_of: list = [None] * n
        sl_of: list = [None] * n
        sr_of: list = [None] * n
        el_of = [0] * n
        er_of = [0] * n
        ext_idx: list = [None] * n
        vec = [False] * n
        busy = [False] * n
        for p in self.used:
            lo, hi = self.assignment.ranges[p]
            k = hi - lo + 1
            lo_of[p] = lo
            k_of[p] = k
            ecols = self._ext_cols[p]
            e = len(ecols)
            idx = {c: k + j for j, c in enumerate(ecols)}
            ext_idx[p] = idx
            virt = k + e
            w = [0] * (k + e) + [T]
            sl = [0] * k
            sr = [0] * k
            for i in range(k):
                c = lo + i
                a, b = dep_map[c] if dep_map is not None else (c - 1, c + 1)
                sl[i] = a - lo if lo <= a <= hi else idx.get(a, virt)
                sr[i] = b - lo if lo <= b <= hi else idx.get(b, virt)
            el_of[p] = idx.get(lo - 1, virt)
            er_of[p] = idx.get(hi + 1, virt)
            if k >= _VEC_MIN_COLS:
                w = np.array(w, dtype=np.int64)
                sl = np.asarray(sl, dtype=np.intp)
                sr = np.asarray(sr, dtype=np.intp)
                vec[p] = True
            W_of[p] = w
            sl_of[p] = sl
            sr_of[p] = sr
        self._lo_of = lo_of
        self._k_of = k_of
        self._W_of = W_of
        self._sl_of = sl_of
        self._sr_of = sr_of
        self._el_of = el_of
        self._er_of = er_of
        self._ext_idx = ext_idx
        self._vec = vec
        self._busy = busy
        self._load = self.assignment.load()

    # -- the segmented loop ----------------------------------------------
    def _run_faulted(self):
        """Replay of a faulted ``GreedyExecutor.run`` on dense machinery.

        Every event the greedy engine would push is pushed here at the
        same time, in the same sequence order (all pushes are strictly
        future except a zero-penalty ``_RESUME``, which appends to the
        bucket being iterated — the exact heap tie-break), so the event
        stream, and with it every counter, diagnostic and telemetry
        record, is bit-identical.
        """
        stats = SimStats()
        T = self.T
        host = self.host
        bw = self.bandwidth
        delays = host.link_delays
        policy = self.policy
        tables = self._fault_tables
        tl = self.telemetry
        ck = self._resume_from
        makespan = 0
        self._epoch = 0
        self._dead: set[int] = set()
        self._fault_log: list[str] = []
        self._streams: dict[tuple[int, int], list] = {}
        self._reassign_dead = None
        stats.faults_injected = len(self.faults.events)
        self._holders = {
            c: set(ps) for c, ps in self.assignment.owners().items()
        }
        remaining = sum(
            (self.assignment.ranges[p][1] - self.assignment.ranges[p][0] + 1)
            for p in self.used
        ) * T

        if tl is not None:
            tl.meta.setdefault("engine", "dense")
        if T == 0 or remaining == 0:
            return self._finish_faulted(stats, 0)

        if tl is not None:
            if ck is None:
                tl.spans.begin("epoch", 0, track="epochs", epoch=0)
            else:
                # The snapshot carries the prefix's telemetry verbatim,
                # including the span left open at capture time.
                tl.load_snapshot(ck.telemetry)

        self._build_epoch_state()

        # Flat directed-link state (persists across epochs, exactly like
        # the greedy fabric object).  Clean directed links skip the
        # fault lookup and the monotone clamp — outcome is always 0 and
        # injection arrivals are monotone per pipe, so the clamp is
        # provably a no-op there.
        n_links = host.n - 1
        r_slot = [-1] * n_links
        r_used = [0] * n_links
        l_slot = [-1] * n_links
        l_used = [0] * n_links
        injections = 0
        last_out: dict[tuple[int, int], int] = {}
        faulty_dirs = tables.faulty_directions()
        has_link_faults = tables.has_link_faults()
        link_outcome = tables.link_outcome
        from repro.netsim.faults import LOST

        # Time-bucketed event lists keyed by a min-heap of bucket times:
        # the heap pops times in ascending order and each bucket keeps
        # append order, which is exactly the greedy engine's (time, seq)
        # heap order — without touching the (makespan-sized) stretches
        # of empty slots a flat array would walk.
        bucket_map: dict[int, list[tuple]] = {}
        times: list[int] = []
        progress = 0
        n_pebbles = 0
        n_messages = 0
        n_lost = 0
        n_retries = 0
        first_top: int | None = None
        # Row-completion times (max over every epoch's replicas), the
        # same convention as the greedy loops and the fault-free tier.
        step_done = [0] * (T + 1)

        def push(t: int, item: tuple) -> None:
            b = bucket_map.get(t)
            if b is None:
                bucket_map[t] = [item]
                heapq.heappush(times, t)
            else:
                b.append(item)

        def hop1(pos: int, step: int, now: int):
            """One fault-aware injection: arrival time or None (lost).

            Mirrors ``LineFabric.hop_faulty``: the slot is consumed
            (and counted) even when the pebble is lost, and arrivals on
            faulty directed links are clamped monotone per direction.
            """
            nonlocal injections
            if step == 1:
                j = pos
                slot, used_ = r_slot[j], r_used[j]
            else:
                j = pos - 1
                slot, used_ = l_slot[j], l_used[j]
            key = (j, step)
            outcome = 0
            if key in faulty_dirs:
                outcome = link_outcome(j, step, now)
            if now > slot:
                slot, used_ = now, 1
            elif used_ < bw:
                used_ += 1
            else:
                slot, used_ = slot + 1, 1
            if step == 1:
                r_slot[j], r_used[j] = slot, used_
            else:
                l_slot[j], l_used[j] = slot, used_
            injections += 1
            if outcome is LOST:
                return None
            arr = slot + delays[j] + outcome
            if key in faulty_dirs:
                prev = last_out.get(key, 0)
                if arr < prev:
                    arr = prev
                else:
                    last_out[key] = arr
            return arr

        def try_start(p: int, now: int) -> None:
            busy = self._busy
            if busy[p]:
                return
            w = self._W_of[p]
            if self._vec[p]:
                own = w[: self._k_of[p]]
                ready = (
                    (own < T)
                    & (w[self._sl_of[p]] >= own)
                    & (w[self._sr_of[p]] >= own)
                )
                tm = np.where(ready, own, T)
                best_i = int(tm.argmin())
                wt = int(tm[best_i])
                if wt >= T:
                    return
                best_t = wt + 1
            elif self.dep_map is None:
                k1 = self._k_of[p] - 1
                eli = self._el_of[p]
                eri = self._er_of[p]
                best_t = T + 1
                best_i = -1
                for i in range(k1 + 1):
                    wt = w[i]
                    t = wt + 1
                    if t > T or t >= best_t:
                        continue
                    if i > 0:
                        if w[i - 1] < wt:
                            continue
                    elif w[eli] < wt:
                        continue
                    if i < k1:
                        if w[i + 1] < wt:
                            continue
                    elif w[eri] < wt:
                        continue
                    best_t = t
                    best_i = i
                if best_i < 0:
                    return
            else:
                sl = self._sl_of[p]
                sr = self._sr_of[p]
                best_t = T + 1
                best_i = -1
                for i in range(self._k_of[p]):
                    wt = w[i]
                    t = wt + 1
                    if t > T or t >= best_t:
                        continue
                    if w[sl[i]] < wt or w[sr[i]] < wt:
                        continue
                    best_t = t
                    best_i = i
                if best_i < 0:
                    return
            busy[p] = True
            push(now + 1, (_DONE, p, best_i, best_t, self._epoch))

        def init_streams(now: int) -> None:
            ep = self._epoch
            self._streams = {}
            provider_of: dict[tuple[int, int], int] = {}
            for (q, c), subs in self.subscribers.items():
                for p in subs:
                    provider_of[(p, c)] = q
            for (p, c), q in sorted(provider_of.items()):
                wm = int(self._W_of[p][self._ext_idx[p][c]])
                self._streams[(p, c)] = [q, 0, 0, wm]
                push(now + self._stream_timeout(p, q), (_CHECK, p, c, ep))

        def reconfigure(now: int) -> int:
            """Mirror of ``GreedyExecutor._reconfigure`` (same logging,
            telemetry spans and resume scheduling; rebuilds the dense
            epoch state instead of the greedy dicts)."""
            old_m = self.m
            reassign = self.reassign or self._default_reassign
            try:
                assignment = reassign(frozenset(self._dead))
            except ValueError as exc:
                raise self._deadlock(
                    f"reconfiguration impossible: {exc}"
                ) from exc
            missing = [
                c
                for c in range(1, assignment.m + 1)
                if not self._holders.get(c)
            ]
            if missing:
                raise self._deadlock(
                    "no replica of a needed database interval survives: "
                    f"columns {missing[:10]}"
                    f"{'...' if len(missing) > 10 else ''}"
                )
            stats.recoveries += 1
            if assignment.m < old_m:
                stats.columns_lost += old_m - assignment.m
            self._reassign_dead = sorted(self._dead)
            self._epoch += 1
            self.assignment = assignment
            self.m = assignment.m
            self.used = assignment.used_positions()
            self._build_subscriptions()
            self._build_epoch_state()
            self._pending_holders = assignment.owners()
            self._streams = {}
            penalty = policy.restart_penalty
            if penalty is None:
                penalty = host.total_delay
            self._fault_log.append(
                f"t={now} recovery: epoch {self._epoch}, m {old_m}->{self.m}, "
                f"resume at t={now + penalty}"
            )
            if tl is not None:
                tl.fault(
                    now, "recovery", f"epoch {self._epoch}: m {old_m}->{self.m}"
                )
                tl.spans.close_all(now)
                tl.spans.begin("recovery", now, track="epochs")
                tl.spans.end(now + penalty)
                tl.spans.begin(
                    "epoch", now + penalty, track="epochs", epoch=self._epoch
                )
            push(now + penalty, (_RESUME, self._epoch))
            return sum(self._k_of[p] for p in self.used) * T

        def capture(now: int, label: str) -> None:
            self.checkpoints.append(
                ExecutorCheckpoint(
                    time=now,
                    epoch=self._epoch,
                    label=label,
                    remaining=remaining,
                    makespan=makespan,
                    progress=progress,
                    pebbles=n_pebbles,
                    messages=n_messages,
                    injections=injections,
                    lost_messages=n_lost,
                    retries=n_retries,
                    watermarks={
                        p: [int(x) for x in self._W_of[p]] for p in self.used
                    },
                    busy={p: self._busy[p] for p in self.used},
                    link_state=[
                        list(r_slot),
                        list(r_used),
                        list(l_slot),
                        list(l_used),
                    ],
                    dead=set(self._dead),
                    streams={k: list(v) for k, v in self._streams.items()},
                    steps=T,
                    kind="faulted",
                    first_top=first_top,
                    events=[
                        (t, list(bucket_map[t])) for t in sorted(bucket_map)
                    ],
                    subscribers={
                        k: list(v) for k, v in self.subscribers.items()
                    },
                    holders={
                        c: set(ps) for c, ps in self._holders.items()
                    },
                    last_out=dict(last_out),
                    reassign_dead=(
                        list(self._reassign_dead)
                        if self._reassign_dead is not None
                        else None
                    ),
                    fault_log=list(self._fault_log),
                    drops_consumed=tables.drops_consumed(),
                    counters={
                        "crashed_nodes": stats.crashed_nodes,
                        "recoveries": stats.recoveries,
                        "columns_lost": stats.columns_lost,
                    },
                    telemetry=None if tl is None else tl.snapshot(),
                    step_done=list(step_done),
                )
            )

        boundaries = tables.boundaries()
        if ck is None:
            # Setup pushes in the greedy engine's exact sequence order:
            # scripted crashes (sorted by position), initial computes
            # (used order, landing at t=1), stream checks (sorted),
            # watchdog.
            for pos, t_crash in sorted(tables.crash_times.items()):
                push(t_crash, (_CRASH, pos))
            for p in self.used:
                try_start(p, 0)
            init_streams(0)
            push(self._watch_window(), (_WATCH, 0))
            b_idx = 0
        else:
            if ck.subscribers is None or ck.holders is None:
                raise ValueError(
                    "checkpoint lacks faulted resume state (summary-only "
                    "capture)"
                )
            self._epoch = ck.epoch
            self._dead = set(ck.dead)
            if ck.reassign_dead is not None:
                reassign = self.reassign or self._default_reassign
                try:
                    assignment = reassign(frozenset(ck.reassign_dead))
                except ValueError as exc:
                    raise self._deadlock(
                        f"reconfiguration impossible: {exc}"
                    ) from exc
                self.assignment = assignment
                self.m = assignment.m
                self.used = assignment.used_positions()
                self._build_subscriptions()
                self._build_epoch_state()
                self._pending_holders = assignment.owners()
                self._reassign_dead = list(ck.reassign_dead)
            # Retry re-subscriptions mutate the provider lists in
            # place, so the snapshot's lists are authoritative over the
            # rebuilt ones.
            self.subscribers = {
                k: list(v) for k, v in ck.subscribers.items()
            }
            self._holders = {c: set(ps) for c, ps in ck.holders.items()}
            self._fault_log = list(ck.fault_log)
            self._streams = {k: list(v) for k, v in ck.streams.items()}
            for p in self.used:
                saved = ck.watermarks[p]
                w = self._W_of[p]
                # The last slot is the virtual watermark, pinned to
                # *this* run's T (which may extend the captured run's).
                for i in range(len(saved) - 1):
                    w[i] = saved[i]
                self._busy[p] = ck.busy[p]
            rs, ru, ls, lu = ck.link_state
            r_slot[:] = rs
            r_used[:] = ru
            l_slot[:] = ls
            l_used[:] = lu
            last_out.update(ck.last_out)
            injections = ck.injections
            n_pebbles = ck.pebbles
            n_messages = ck.messages
            n_lost = ck.lost_messages
            n_retries = ck.retries
            progress = ck.progress
            makespan = ck.makespan
            first_top = ck.first_top
            if ck.step_done is None:
                from repro.delta import DeltaUnsupported

                raise DeltaUnsupported(
                    "checkpoint predates step-latency capture "
                    "(no step_done)"
                )
            for t_row, v in enumerate(ck.step_done):
                step_done[t_row] = v
            remaining = ck.remaining + sum(
                self._k_of[p] for p in self.used
            ) * (T - ck.steps)
            stats.crashed_nodes = ck.counters.get("crashed_nodes", 0)
            stats.recoveries = ck.counters.get("recoveries", 0)
            stats.columns_lost = ck.counters.get("columns_lost", 0)
            tables.consume_drops(ck.drops_consumed)
            # Re-seed the pending events: the snapshot's buckets minus
            # scripted crashes, which are re-read from *this* run's
            # plan (a fault edit may have moved them) and re-inserted
            # at the bucket fronts, exactly where the setup pushes put
            # them in a fresh run.
            crash_front: dict[int, list[tuple]] = {}
            for pos, t_crash in sorted(tables.crash_times.items()):
                if t_crash >= ck.time:
                    crash_front.setdefault(t_crash, []).append(
                        (_CRASH, pos)
                    )
            kept: dict[int, list[tuple]] = {}
            for t, evs in ck.events:
                evs = [e for e in evs if e[0] != _CRASH]
                if evs:
                    kept[t] = evs
            for t in sorted(set(crash_front) | set(kept)):
                bucket_map[t] = crash_front.get(t, []) + kept.get(t, [])
                heapq.heappush(times, t)
            b_idx = bisect_right(boundaries, ck.time)
        n_bounds = len(boundaries)

        stride = self.checkpoint_stride
        start_t = 0 if ck is None else ck.time
        next_mark = (
            stride * (start_t // stride + 1) if stride is not None else None
        )
        pending_resume = False

        finished = False
        while times and not finished:
            now = heapq.heappop(times)
            if b_idx < n_bounds and boundaries[b_idx] <= now:
                # State is unchanged since the last processed event, so
                # capturing here (first event at/after the boundary) is
                # the state *at* the boundary time recorded.
                while b_idx < n_bounds and boundaries[b_idx] <= now:
                    capture(boundaries[b_idx], "fault-boundary")
                    b_idx += 1
            if pending_resume:
                # Deferred from the _RESUME event so the snapshot's
                # pending buckets are whole (the resume bucket itself
                # was mid-iteration at the time).
                capture(now, "resume")
                pending_resume = False
            if next_mark is not None and now >= next_mark:
                capture(now, "stride")
                next_mark = stride * (now // stride + 1)
            bucket = bucket_map[now]
            for ev in bucket:
                kind = ev[0]
                if kind == _DONE:
                    _, p, i, t, ep = ev
                    if ep != self._epoch:
                        continue
                    self._busy[p] = False
                    self._W_of[p][i] = t
                    if t == T and first_top is None:
                        first_top = now
                    n_pebbles += 1
                    remaining -= 1
                    progress += 1
                    c = self._lo_of[p] + i
                    if tl is not None:
                        tl.pebble(now, p, c, t)
                    if now > makespan:
                        makespan = now
                    if now > step_done[t]:
                        step_done[t] = now
                    subs = self.subscribers.get((p, c))
                    if subs:
                        for dst in subs:
                            n_messages += 1
                            if tl is not None:
                                tl.message(now)
                            step = 1 if dst > p else -1
                            arr = hop1(p, step, now)
                            if arr is None:
                                n_lost += 1
                                if tl is not None:
                                    tl.send(now, now)
                                    tl.drop(now)
                            else:
                                if tl is not None:
                                    tl.send(now, arr)
                                push(arr, (_MSG, p + step, dst, c, t, ep))
                    if remaining == 0:
                        finished = True
                        break
                    try_start(p, now)
                elif kind == _MSG:
                    _, pos, dst, c, t, ep = ev
                    if ep != self._epoch:
                        continue
                    if pos == dst:
                        idx = self._ext_idx[pos]
                        wi = idx.get(c) if idx is not None else None
                        # Duplicates (replays) and gaps (after a lost
                        # predecessor) are expected under faults: apply
                        # only the next in-order pebble.
                        if wi is not None and t == self._W_of[pos][wi] + 1:
                            self._W_of[pos][wi] = t
                            progress += 1
                            if tl is not None:
                                tl.deliver(now)
                            try_start(pos, now)
                    else:
                        step = 1 if dst > pos else -1
                        arr = hop1(pos, step, now)
                        if arr is None:
                            n_lost += 1
                            if tl is not None:
                                tl.send(now, now)
                                tl.drop(now)
                        else:
                            if tl is not None:
                                tl.send(now, arr)
                            push(arr, (_MSG, pos + step, dst, c, t, ep))
                elif kind == _CRASH:
                    _, pos = ev
                    if pos in self._dead:
                        continue
                    self._dead.add(pos)
                    stats.crashed_nodes += 1
                    self._fault_log.append(f"t={now} crash node {pos}")
                    if tl is not None:
                        tl.fault(now, "crash", f"node {pos}")
                    for holders in self._holders.values():
                        holders.discard(pos)
                    if self.assignment.ranges[pos] is None:
                        continue  # relay-only node: no databases lost
                    remaining = reconfigure(now)
                elif kind == _RESUME:
                    _, ep = ev
                    if ep != self._epoch:
                        continue
                    missing = [
                        c
                        for c in range(1, self.m + 1)
                        if not self._holders.get(c)
                    ]
                    if missing:
                        raise self._deadlock(
                            "no replica of a needed database interval "
                            "survived the restart window: columns "
                            f"{missing[:10]}"
                            f"{'...' if len(missing) > 10 else ''}"
                        )
                    self._holders = {
                        c: set(ps) - self._dead
                        for c, ps in self._pending_holders.items()
                    }
                    for p in self.used:
                        try_start(p, now)
                    init_streams(now)
                    pending_resume = True
                elif kind == _CHECK:
                    _, p, c, ep = ev
                    if ep != self._epoch or p in self._dead:
                        continue
                    idx = self._ext_idx[p]
                    wi = idx.get(c) if idx is not None else None
                    stream = self._streams.get((p, c))
                    if wi is None or stream is None:
                        continue
                    wm = int(self._W_of[p][wi])
                    if wm >= T:
                        continue  # stream complete
                    provider, attempts, retries, last_t = stream
                    if wm > last_t:  # progressing normally
                        stream[3] = wm
                        push(
                            now + self._stream_timeout(p, provider),
                            (_CHECK, p, c, ep),
                        )
                        continue
                    if retries >= policy.max_retries:
                        raise self._deadlock(
                            f"stream {provider}->{p} for column {c} stalled "
                            f"at t={wm} after {retries} retries"
                        )
                    candidates = [
                        q
                        for q in self.assignment.owners().get(c, ())
                        if q not in self._dead
                    ]
                    if not candidates:
                        raise self._deadlock(
                            f"no live replica of column {c} left to retry from"
                        )
                    candidates.sort(
                        key=lambda q: (host.distance(p, q), abs(q - p), q)
                    )
                    stream[1] = attempts + 1
                    q2 = candidates[attempts % len(candidates)]
                    if q2 != provider:
                        old = self.subscribers.get((provider, c))
                        if old and p in old:
                            old.remove(p)
                        self.subscribers.setdefault((q2, c), []).append(p)
                        stream[0] = q2
                    self._fault_log.append(
                        f"t={now} retry: {p} re-requests column {c} "
                        f"(past t={wm}) from {q2}"
                    )
                    if tl is not None:
                        tl.fault(now, "retry", f"{p} col {c} from {q2}")
                    push(
                        now + max(1, host.distance(p, q2)),
                        (_REQ, q2, p, c, wm, ep),
                    )
                    push(
                        now + self._stream_timeout(p, q2), (_CHECK, p, c, ep)
                    )
                elif kind == _REQ:
                    _, q, p, c, from_t, ep = ev
                    if ep != self._epoch or q in self._dead:
                        continue
                    lo = self._lo_of[q]
                    have = None
                    if self._ext_idx[q] is not None:
                        if lo <= c <= lo + self._k_of[q] - 1:
                            have = int(self._W_of[q][c - lo])
                    if have is None or have <= from_t:
                        # Merely slow, not faulty: no retry consumed.
                        continue
                    stream = self._streams.get((p, c))
                    if stream is not None:
                        stream[2] += 1
                    n_retries += 1
                    step = 1 if p > q else -1
                    count = have - from_t
                    if not has_link_faults:
                        # Batched whole-stream replay (the greedy
                        # engine's hop_many fast path): closed-form
                        # slot assignment, no per-pebble fault check.
                        n_messages += count
                        if tl is not None:
                            tl.message(now, count)
                        if step == 1:
                            j = q
                            slot, used_ = r_slot[j], r_used[j]
                        else:
                            j = q - 1
                            slot, used_ = l_slot[j], l_used[j]
                        if now > slot:
                            slot, used_ = now, 0
                        base = slot + delays[j]
                        arrivals = [
                            base + (used_ + x) // bw for x in range(count)
                        ]
                        occ = used_ + count - 1
                        slot, used_ = slot + occ // bw, occ % bw + 1
                        if step == 1:
                            r_slot[j], r_used[j] = slot, used_
                        else:
                            l_slot[j], l_used[j] = slot, used_
                        injections += count
                        if tl is not None:
                            for arr in arrivals:
                                tl.send(now, arr)
                        for t, arr in zip(
                            range(from_t + 1, have + 1), arrivals
                        ):
                            push(arr, (_MSG, q + step, p, c, t, ep))
                    else:
                        for t in range(from_t + 1, have + 1):
                            n_messages += 1
                            if tl is not None:
                                tl.message(now)
                            arr = hop1(q, step, now)
                            if arr is None:
                                n_lost += 1
                                if tl is not None:
                                    tl.send(now, now)
                                    tl.drop(now)
                            else:
                                if tl is not None:
                                    tl.send(now, arr)
                                push(arr, (_MSG, q + step, p, c, t, ep))
                else:  # _WATCH
                    _, mark = ev
                    if remaining and progress == mark:
                        raise self._deadlock(
                            "no progress for a full watchdog window"
                        )
                    if remaining:
                        push(now + self._watch_window(), (_WATCH, progress))
            del bucket_map[now]

        stats.pebbles = n_pebbles
        stats.messages = n_messages
        stats.lost_messages = n_lost
        stats.retries = n_retries
        if remaining:
            raise self._deadlock(f"{remaining} pebbles never computed")
        if tl is not None:
            tl.spans.close_all(makespan)
        self._injections = injections
        self.first_top_t = first_top
        stats.record_step_latency(latencies_from_completions(step_done))
        return self._finish_faulted(stats, makespan)

    def _finish_faulted(self, stats: SimStats, makespan: int):
        """Build the ExecResult from the *final* epoch's guest.

        An epoch restart re-derives every database from scratch and the
        run only completes when the final epoch finishes all ``T`` rows
        of its (possibly reduced) ``m`` columns, so one vectorised value
        pass over the final guest reproduces every digest and replica
        the greedy engine accumulates scalar-wise.
        """
        from repro.core.executor import ExecResult
        from repro.machine.database import Database

        stats.makespan = makespan
        stats.pebble_hops = getattr(self, "_injections", 0)
        stats.procs_used = len(self.used)
        stats.redundant = stats.pebbles - self.m * self.T
        result = ExecResult(stats, self.T, self.assignment)
        folds, db_digests, states = self._guest_values()
        T = self.T
        label = self.col_label
        for p in self.used:
            lo, hi = self.assignment.ranges[p]
            for c in range(lo, hi + 1):
                result.value_digests[(p, c)] = folds[c - 1]
                state = states[c - 1]
                if isinstance(state, dict):
                    state = dict(state)
                elif isinstance(state, list):
                    state = list(state)
                result.replicas[(p, c)] = Database(
                    label(c), state, T, db_digests[c - 1]
                )
        return result
