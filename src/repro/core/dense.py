"""Dense fault-free execution tier.

:class:`DenseExecutor` runs the same simulation semantics as
:class:`~repro.core.executor.GreedyExecutor` — same assignment, same
greedy ``(t, column)`` scheduling rule, same pipelined-link timing model
— but restructured for the common fault-free case, where the whole run
is a pure function of ``(host, assignment, steps, bandwidth)``:

* **values and timing are decoupled.**  In a fault-free run every
  replica of column ``c`` computes exactly the guest's pebble values,
  and no scheduling decision ever reads a pebble *value* (the greedy
  pick is by ``(t, c)``, link slots are assigned by injection time).
  The dense tier therefore computes all values/digests once with the
  row-vectorised guest reference (``m`` columns per numpy op instead of
  one scalar ``mix4`` per replica pebble) and runs a separate *timing
  skeleton* that moves only integers.
* **no event heap.**  Every event in the greedy engine is pushed at a
  strictly later time than the one being processed, so a flat
  time-indexed bucket list replayed in append order reproduces the
  heap's ``(time, seq)`` order exactly — O(1) per event, no tuple
  comparisons, no ``Event`` allocation.
* **array-shaped per-processor state.**  Each position keeps one flat
  *watermark array* ``W``: its own columns' completed rows first, then
  one slot per subscribed external column, then a virtual slot pinned
  to ``T`` for the array boundaries.  Column ``i``'s two lateral
  sources are precomputed indices ``sl[i]``/``sr[i]`` into ``W`` — the
  line adjacency and a relabelled-guest ``dep_map`` (rings) become the
  *same* ready check, ``W[sl[i]] >= W[i] <= W[sr[i]]``.  Wide positions
  (``k >= _VEC_MIN_COLS`` own columns) scan for the greedy pick with
  one vectorised numpy pass instead of a Python loop; ``argmin`` over
  the masked watermarks reproduces the scalar ``(t, column)``
  tie-breaking exactly.
* **flat link state.**  Each directed link is three integers (current
  slot, pebbles in that slot, injection count) in preallocated lists —
  the :class:`~repro.netsim.links.LinkPipe` slot rule inlined — and
  whole-stream sends to ``>= _VEC_MIN_SUBS`` subscribers assign their
  link slots in closed form (injection ``j`` lands in slot
  ``slot0 + (used0 + j) // bw``) instead of iterating the slot rule.
* **racing without values.**  Fault-free redundant-issue racing
  (``fanout > 1``) is value-independent too: link slots follow
  injection order and a cancellation only reads the subscriber's
  watermark.  Streams of raced columns live in their own table and
  carry their own message kind, so the single-issue branches above run
  unchanged; the raced branch cancels at the source and at every relay
  hop once the subscriber is past the pebble, and delivers first-wins
  (an in-order copy wins, a duplicate loses).

Because the skeleton replays the exact event order, the result is
**bit-identical** to the greedy engine: same makespan, same per-replica
pebble counts, same message/pebble-hop counters, same value digests and
database replicas.  ``tests/test_dense.py`` asserts this differentially
over the e1/e3/e5 parameter grids, over ring guests (``dep_map`` /
``col_label`` from :mod:`repro.core.ring`) and over graph hosts run
through the Fact-3 embedding (whose per-assignment route delays are
exactly the flat ``link_delays`` array of the embedded
:class:`~repro.machine.host.HostArray` — so a fault-free
``simulate_overlap_on_graph`` runs dense end to end).

The tier covers every fault-free topology: plain line arrays, ring
guests (relabelled via ``dep_map``/``col_label``), and graph hosts
after embedding.  Faulted runs take the segmented
:class:`~repro.core.dense_faults.FaultedDenseExecutor` subclass (dense
between fault boundaries, scalar handling only at fault/recovery
events); only tracing, multicast streams, scheduling jitter
(``tie_seed``) and racing under a non-empty fault plan still take the
greedy engine.  :func:`resolve_engine`
encodes that selection rule for the ``engine="auto"`` front-ends.
Telemetry is the one observability feature both tiers support: an
attached :class:`~repro.telemetry.timeline.MetricsTimeline` is fed from
the retained event buckets *after* the timed loop, so it never forces
the greedy fallback and never perturbs dense timing.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.checkpoint import ExecutorCheckpoint
from repro.machine.database import Database
from repro.machine.guest import GuestArray
from repro.machine.host import HostArray
from repro.machine.mixing import FOLD_SEED, mix2_v
from repro.machine.programs import Program
from repro.netsim.stats import SimStats, latencies_from_completions

#: Engine names accepted by the simulation front-ends.
ENGINES = ("auto", "dense", "greedy")

#: Own-column count above which the ready scan switches to the numpy
#: path (one vectorised pass over the watermark array).  Below it the
#: scalar loop wins on constant factors.
_VEC_MIN_COLS = 32
#: Whole-stream subscriber count above which link slots are assigned in
#: closed form (numpy) instead of iterating the slot rule.
_VEC_MIN_SUBS = 16

# Bucket-event kinds.
_DONE = 0
_MSG = 1
_RMSG = 2  # a raced copy: (_RMSG, pos, dst, c, t, watermark slot, source)


def resolve_engine(
    engine: str,
    *,
    faults=None,
    trace=None,
    multicast: bool = False,
    tie_seed=None,
    exec_policy=None,
) -> str:
    """Pick the execution tier for one simulation.

    ``auto`` selects ``dense`` exactly when the run needs none of the
    greedy-only machinery; explicitly asking for ``dense`` with an
    incompatible feature is an error (the caller asked for something
    the dense tier cannot honour), while ``auto`` falls back silently.

    Relabelled guests (``dep_map``/``col_label``, i.e. rings) are *not*
    a fallback reason: the dense skeleton resolves arbitrary dependency
    maps through the same watermark indices as the line adjacency.
    Neither are faults: faulted runs take the segmented
    :class:`~repro.core.dense_faults.FaultedDenseExecutor` tier (dense
    between fault boundaries, bit-identical to greedy).  Nor is
    fault-free redundant-issue racing: its schedule never reads a
    pebble value (link slots follow injection order, a cancellation
    reads only the subscriber's watermark), so :class:`DenseExecutor`
    runs it bit-identically.  The remaining fallback reasons are
    tracing, multicast streams, scheduling jitter (``tie_seed``) and
    racing under a non-empty fault plan, whose retries and
    re-subscriptions only the greedy engine races.  The
    *stealing* half of an :class:`~repro.core.racing.ExecPolicy` never
    forces greedy — it is a pre-execution assignment rebalance both
    tiers consume as-is.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if engine == "greedy":
        return "greedy"
    reasons = []
    if trace is not None:
        reasons.append("tracing")
    if multicast:
        reasons.append("multicast streams")
    if tie_seed is not None:
        reasons.append("scheduling jitter")
    if exec_policy is not None and faults is not None and not faults.is_empty:
        from repro.core.racing import resolve_policy

        if resolve_policy(exec_policy).issue_fanout > 1:
            reasons.append("redundant-issue racing under a fault plan")
    if not reasons:
        return "dense"
    if engine == "dense":
        raise ValueError(
            f"engine='dense' cannot honour {', '.join(reasons)}; "
            "use engine='auto' (falls back) or engine='greedy'"
        )
    return "greedy"


class DenseExecutor:
    """Fault-free fast-path executor (see module docstring).

    Construction mirrors :class:`~repro.core.executor.GreedyExecutor`
    for the supported subset — including ``dep_map``/``col_label``
    relabelled guests — and :meth:`run` returns the same
    :class:`~repro.core.executor.ExecResult`.  ``fanout`` is the
    resolved :attr:`~repro.core.racing.ExecPolicy.issue_fanout`: above
    1, every external column with several owners subscribes to its
    ``fanout`` nearest and the copies race.
    """

    __slots__ = (
        "host",
        "assignment",
        "program",
        "T",
        "bandwidth",
        "m",
        "used",
        "subscribers",
        "fanout",
        "_raced_cols",
        "telemetry",
        "dep_map",
        "col_label",
        "_relabelled",
        "_ext_cols",
        "checkpoint_stride",
        "checkpoints",
        "first_top_t",
        "_resume_from",
    )

    def _expected_ckpt_kind(self) -> str:
        """Checkpoint ``kind`` this executor's run path would capture —
        and therefore the only kind it can restore.  The faulted
        subclass answers per its compiled plan (an effect-free plan
        falls through to the fault-free path)."""
        return "dense"

    def __init__(
        self,
        host: HostArray,
        assignment: Assignment,
        program: Program,
        steps: int,
        bandwidth: int | None = None,
        dep_map: dict[int, tuple[int, int]] | None = None,
        col_label=None,
        telemetry=None,
        checkpoint_stride: int | None = None,
        fanout: int = 1,
    ) -> None:
        if assignment.n != host.n:
            raise ValueError(
                f"assignment is for {assignment.n} positions, host has {host.n}"
            )
        from repro.core.killing import validate_steps

        steps = validate_steps(steps)
        assignment.validate()
        self.host = host
        self.assignment = assignment
        self.program = program
        self.T = steps
        self.bandwidth = (
            host.default_bandwidth() if bandwidth is None else bandwidth
        )
        self.m = assignment.m
        self.used = assignment.used_positions()
        self.dep_map = dep_map
        self.col_label = col_label or (lambda c: c)
        self._relabelled = dep_map is not None or col_label is not None
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        self.fanout = fanout
        if dep_map is not None:
            for c in range(1, self.m + 1):
                if c not in dep_map:
                    raise ValueError(f"dep_map missing column {c}")
                for src in dep_map[c]:
                    if not 1 <= src <= self.m:
                        raise ValueError(
                            f"dep_map[{c}] source {src} outside 1..{self.m}"
                        )
        # Optional MetricsTimeline.  The dense loop never checks it: the
        # bucket lists *are* the full event history (append-only), so an
        # attached timeline is fed by a post-pass over them after the
        # timed simulation — zero overhead inside the loop either way.
        self.telemetry = telemetry
        if checkpoint_stride is not None and checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")
        # Periodic full snapshots of the timing skeleton: one
        # ExecutorCheckpoint each time the loop clock crosses a stride
        # mark.  None = no captures (zero overhead on the hot path).
        self.checkpoint_stride = checkpoint_stride
        self.checkpoints: list = []
        # First host step at which any position's *own* watermark
        # reached T — the divergence bound for horizon-extension deltas
        # (no scheduling decision can consult "watermark == T?" before
        # it).  Filled by the timing loop.
        self.first_top_t: int | None = None
        self._resume_from = None
        self._build_subscriptions()

    def restore(self, checkpoint) -> "DenseExecutor":
        """Arm this (freshly constructed) executor to resume mid-run.

        The next :meth:`run` reconstitutes the snapshot's watermark
        arrays, link-slot state and counters, seeds the event buckets
        with the pending events, and replays only the suffix — finishing
        bit-identically to an uninterrupted run, provided the
        checkpoint's prefix is valid for this executor's config (the
        caller's contract; :mod:`repro.delta` derives it from
        blast-radius rules).  Horizon *extensions* are supported when
        the snapshot predates ``first_top``; shrinks are not.
        Returns ``self`` for chaining.
        """
        expected = self._expected_ckpt_kind()
        if checkpoint.kind != expected:
            # Signalled as DeltaUnsupported (not ValueError): a fault
            # edit can legitimately flip a config between the faulted
            # and effect-free paths, whose snapshots are incompatible —
            # the delta layer should fall back to a full recompute.
            from repro.delta import DeltaUnsupported

            raise DeltaUnsupported(
                f"cannot restore a {checkpoint.kind!r} checkpoint into "
                f"{type(self).__name__} (expects {expected!r})"
            )
        if checkpoint.fanout != self.fanout:
            # Single-issue and raced runs subscribe (and queue events)
            # differently: neither prefix is valid for the other.
            from repro.delta import DeltaUnsupported

            raise DeltaUnsupported(
                f"cannot restore a fanout={checkpoint.fanout} checkpoint "
                f"into a fanout={self.fanout} run"
            )
        if checkpoint.steps < 1:
            raise ValueError("checkpoint predates resume support (steps=0)")
        if checkpoint.steps > self.T:
            raise ValueError(
                f"cannot restore a T={checkpoint.steps} checkpoint into a "
                f"shorter T={self.T} run"
            )
        if checkpoint.steps != self.T and checkpoint.first_top is not None:
            raise ValueError(
                "checkpoint is past the horizon-extension divergence point "
                f"(first_top={checkpoint.first_top})"
            )
        if self.telemetry is not None and checkpoint.telemetry is None:
            raise ValueError(
                "cannot resume with telemetry attached: the checkpoint was "
                "captured without a timeline snapshot"
            )
        self._resume_from = checkpoint
        return self

    def _deps(self, c: int) -> tuple[int, int]:
        """Lateral source columns of ``c`` (left-like, right-like)."""
        if self.dep_map is None:
            return (c - 1, c + 1)
        return self.dep_map[c]

    def _build_subscriptions(self) -> None:
        """Same nearest-owner subscription rule (and list order) as
        ``GreedyExecutor._build_state``, racing included: with
        ``fanout > 1`` a column with several owners is *raced* — each
        subscriber takes its ``fanout`` nearest.  Owners are ranked by
        ``(distance, |q - p|, q)``, the distance read off the host's
        prefix sums."""
        m = self.m
        prefix = self.host.prefix
        owners = self.assignment.owners()
        fanout = self.fanout
        dep_map = self.dep_map
        subscribers: dict[tuple[int, int], list[int]] = {}
        ext_cols: dict[int, list[int]] = {}
        raced_cols: set[int] = set()
        for p in self.used:
            lo, hi = self.assignment.ranges[p]
            if dep_map is None:
                # A line range reads outside itself only at its edges.
                needed = [c for c in (lo - 1, hi + 1) if 1 <= c <= m]
            else:
                needed = sorted(
                    {
                        src
                        for c in range(lo, hi + 1)
                        for src in dep_map[c]
                        if 1 <= src <= m and not (lo <= src <= hi)
                    }
                )
            ext_cols[p] = needed
            at = prefix[p]
            for c in needed:
                candidates = owners[c]
                if len(candidates) == 1:
                    near = candidates
                else:
                    keys = [(abs(prefix[q] - at), abs(q - p), q) for q in candidates]
                    if fanout > 1:
                        raced_cols.add(c)
                        near = [q for _, _, q in sorted(keys)[:fanout]]
                    else:
                        near = (min(keys)[2],)
                for q in near:
                    subscribers.setdefault((q, c), []).append(p)
        self.subscribers = subscribers
        self._ext_cols = ext_cols
        self._raced_cols = raced_cols

    # -- values (computed once, vectorised) -----------------------------
    def _guest_values(self):
        """Per-column value folds, update digests and final states.

        Returns ``(value_folds, update_digests, final_states)`` — each a
        length-``m`` sequence indexed by column-1.  Every fault-free
        replica reproduces exactly these values (that is what
        :mod:`repro.core.verify` checks), so one reference-style pass
        serves all replicas.
        """
        if self._relabelled:
            return self._guest_values_relabelled()
        m, T, prog = self.m, self.T, self.program
        guest = GuestArray(m, prog)
        if prog.supports_vector:
            grid = guest.boundary_grid(T)
            states = prog.init_state_vec(m)
            # Database digest chain: seed tag_s(0xDB, col) then one
            # mix2 per update — vectorised across columns per row.
            from repro.machine.guest import _DB_SEED

            db_digests = mix2_v(
                np.uint64(_DB_SEED), np.arange(1, m + 1, dtype=np.uint64)
            )
            folds = np.full(m, np.uint64(FOLD_SEED), dtype=np.uint64)
            for t in range(1, T + 1):
                prev = grid[t - 1]
                values, updates = prog.compute_row_vec(
                    t, states, prev[0:m], prev[1 : m + 1], prev[2 : m + 2]
                )
                grid[t, 1 : m + 1] = values
                states = prog.apply_vec(states, updates)
                db_digests = mix2_v(db_digests, updates)
                folds = mix2_v(folds, values)
            return (
                [int(v) for v in folds],
                [int(d) for d in db_digests],
                [int(s) for s in np.asarray(states, dtype=np.uint64)],
            )
        return self._guest_values_scalar()

    def _guest_values_relabelled(self):
        """The relabelled-guest (``dep_map``/``col_label``) value pass.

        Column ``c`` runs program identity ``col_label(c)`` and reads
        its lateral sources through ``dep_map`` — ring simulations wire
        fold-embedded neighbours this way.  No program's ``compute``
        depends on the column index except through its per-column
        initial state, so the recurrence vectorises with fancy-indexed
        gathers and label-permuted initial states whenever the labels
        stay inside ``1..m`` (rings: a permutation).
        """
        m, T, prog = self.m, self.T, self.program
        label = self.col_label
        labels = [label(c) for c in range(1, m + 1)]
        dep_map = self.dep_map
        if (
            prog.supports_vector
            and dep_map is not None
            and all(1 <= lb <= m for lb in labels)
        ):
            from repro.machine.guest import _DB_SEED
            from repro.machine.pebbles import initial_values

            lab_idx = np.array(labels, dtype=np.intp) - 1
            lab_u = np.array(labels, dtype=np.uint64)
            dep_l = np.array(
                [dep_map[c][0] - 1 for c in range(1, m + 1)], dtype=np.intp
            )
            dep_r = np.array(
                [dep_map[c][1] - 1 for c in range(1, m + 1)], dtype=np.intp
            )
            states = prog.init_state_vec(m)[lab_idx]
            db_digests = mix2_v(np.uint64(_DB_SEED), lab_u)
            folds = np.full(m, np.uint64(FOLD_SEED), dtype=np.uint64)
            prev = initial_values(m)[lab_idx]
            for t in range(1, T + 1):
                values, updates = prog.compute_row_vec(
                    t, states, prev[dep_l], prev, prev[dep_r]
                )
                states = prog.apply_vec(states, updates)
                db_digests = mix2_v(db_digests, updates)
                folds = mix2_v(folds, values)
                prev = values
            return (
                [int(v) for v in folds],
                [int(d) for d in db_digests],
                [int(s) for s in np.asarray(states, dtype=np.uint64)],
            )
        return self._guest_values_scalar()

    def _guest_values_scalar(self):
        """Scalar fallback (structured database state or labels outside
        ``1..m``): one direct guest execution — still one compute per
        pebble total, instead of one per *replica* pebble."""
        m, T, prog = self.m, self.T, self.program
        from repro.machine.mixing import mix2_s
        from repro.machine.pebbles import (
            BOUNDARY_LEFT,
            BOUNDARY_RIGHT,
            boundary_value,
            initial_value,
        )

        label = self.col_label
        labels = [label(c) for c in range(1, m + 1)]
        deps = self._deps
        dbs = [Database(lb, prog.init_state(lb)) for lb in labels]
        row = [initial_value(lb) for lb in labels]
        folds = [FOLD_SEED] * m
        for t in range(1, T + 1):
            left_b = boundary_value(BOUNDARY_LEFT, t - 1)
            right_b = boundary_value(BOUNDARY_RIGHT, t - 1)
            new_row = [0] * m
            pending = [0] * m
            for i in range(m):
                src_l, src_r = deps(i + 1)
                left = row[src_l - 1] if 1 <= src_l <= m else (
                    left_b if src_l < 1 else right_b
                )
                right = row[src_r - 1] if 1 <= src_r <= m else (
                    left_b if src_r < 1 else right_b
                )
                value, update = prog.compute(
                    labels[i], t, dbs[i].state, left, row[i], right
                )
                new_row[i] = value
                pending[i] = update
                folds[i] = mix2_s(folds[i], value)
            for i in range(m):
                dbs[i].apply(prog, pending[i])
            row = new_row
        return (
            folds,
            [db.digest for db in dbs],
            [db.state for db in dbs],
        )

    # -- timing skeleton -------------------------------------------------
    def _simulate_timing(self, stats: SimStats) -> int:
        """Replay the greedy event order with flat integer state.

        Returns the makespan; fills ``stats.pebbles``/``messages`` and
        leaves the total link-injection count in ``stats.pebble_hops``.
        """
        T = self.T
        m = self.m
        n = self.host.n
        bw = self.bandwidth
        delays = self.host.link_delays
        dep_map = self.dep_map

        # Per-position watermark arrays.  W_of[p] lays out: the k own
        # columns' completed rows, then one watermark per subscribed
        # external column (sorted), then a virtual slot pinned to T for
        # the array boundaries.  sl_of/sr_of[p][i] index the two lateral
        # sources of own column i into that same array, so line
        # adjacency and dep_map wiring share one ready check.
        line = dep_map is None
        lo_of = [0] * n
        k_of = [0] * n
        W_of: list = [None] * n
        sl_of: list = [None] * n
        sr_of: list = [None] * n
        # Line fast path: watermark indices of the left/right external
        # columns (or the virtual slot), so edge columns skip the
        # per-column source tables entirely.
        el_of = [0] * n
        er_of = [0] * n
        ext_idx: list = [None] * n
        vec = [False] * n
        busy = [False] * n
        remaining = 0
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
            remaining += k * T

        if T == 0 or remaining == 0:
            self._racing_extras(stats, 0, 0, 0)
            if self.telemetry is not None:
                self.telemetry.meta.setdefault("engine", "dense")
            return 0

        # Directed-link occupancy: the LinkPipe slot rule as three flat
        # integer lists per direction (busy-slot time, pebbles in that
        # slot, lifetime injections).  Link j joins positions j, j+1.
        n_links = n - 1
        r_slot = [-1] * n_links
        r_used = [0] * n_links
        l_slot = [-1] * n_links
        l_used = [0] * n_links
        injections = 0

        # Streams of raced columns get their own table (each subscriber
        # with its watermark slot), so single-issue streams run exactly
        # the branches below that they always ran.
        raced_cols = self._raced_cols
        subscribers = {
            k_: tuple(v)
            for k_, v in self.subscribers.items()
            if k_[1] not in raced_cols
        }
        subscribers_get = subscribers.get
        raced_streams = self._raced_streams(ext_idx)
        raced_get = raced_streams.get
        racing = bool(raced_streams)
        n_cancelled = n_wins = n_losses = 0

        # Time-bucketed event lists.  Every push is strictly in the
        # future (computes finish at now+1, link delays are >= 1), so a
        # forward sweep in append order replays the heap's (time, seq)
        # order exactly.
        buckets: list[list[tuple]] = [[] for _ in range(T + 2)]
        pending_events = 0
        makespan = 0
        n_pebbles = 0
        n_messages = 0
        # Row-completion times (same convention as the greedy loops):
        # step_done[t] = host step the last pebble of guest row t
        # finished.  Consecutive diffs are the per-step latencies.
        step_done = [0] * (T + 1)

        def try_start(p: int, now: int) -> None:
            nonlocal pending_events
            if busy[p]:
                return
            w = W_of[p]
            if vec[p]:
                # Batched ready scan: mask the non-ready columns to T
                # (every ready column's watermark is < T), take the
                # first argmin.  First-min semantics == the scalar
                # loop's (smallest t, then smallest column) pick.
                own = w[: k_of[p]]
                ready = (
                    (own < T)
                    & (w[sl_of[p]] >= own)
                    & (w[sr_of[p]] >= own)
                )
                tm = np.where(ready, own, T)
                best_i = int(tm.argmin())
                wt = int(tm[best_i])
                if wt >= T:
                    return
                best_t = wt + 1
            elif line:
                # Line adjacency: own column i depends on own i-1/i+1
                # except at the range edges, which read the external
                # (or virtual) watermark slots directly.
                k1 = k_of[p] - 1
                eli = el_of[p]
                eri = er_of[p]
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
                sl = sl_of[p]
                sr = sr_of[p]
                best_t = T + 1
                best_i = -1
                for i in range(k_of[p]):
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
            arr = now + 1
            if arr >= len(buckets):
                buckets.extend([] for _ in range(arr - len(buckets) + 1))
            buckets[arr].append((_DONE, p, best_i, best_t))
            pending_events += 1

        def race_hop(pos, dst, c, t, wi, src, now, bw=bw, delays=delays):
            """Inject one raced copy on the link from ``pos`` toward
            ``dst`` (the LinkPipe slot rule) and queue its arrival.
            ``bw``/``delays`` are bound as defaults, not closed over, so
            the hot loop keeps reading them as plain locals."""
            nonlocal injections, pending_events
            if dst > pos:
                j, slots, useds, nxt = pos, r_slot, r_used, pos + 1
            else:
                j, slots, useds, nxt = pos - 1, l_slot, l_used, pos - 1
            slot, used_ = slots[j], useds[j]
            if now > slot:
                slot, used_ = now, 1
            elif used_ < bw:
                used_ += 1
            else:
                slot, used_ = slot + 1, 1
            slots[j], useds[j] = slot, used_
            injections += 1
            arr = slot + delays[j]
            if arr >= len(buckets):
                buckets.extend([] for _ in range(arr - len(buckets) + 1))
            buckets[arr].append((_RMSG, nxt, dst, c, t, wi, src))
            pending_events += 1

        ck = self._resume_from
        first_top: int | None = None
        if ck is None:
            for p in self.used:
                try_start(p, 0)
            now = 0
        else:
            # Resume: overwrite the freshly built arrays with the
            # checkpointed prefix state and seed the buckets with the
            # pending events, preserving their captured append order.
            for p in self.used:
                saved = ck.watermarks[p]
                w = W_of[p]
                # The last slot is the virtual boundary watermark,
                # pinned to *this* run's T (horizon extensions re-pin).
                for i in range(len(saved) - 1):
                    w[i] = saved[i]
                busy[p] = ck.busy[p]
            rs, ru, ls, lu = ck.link_state
            r_slot[:] = rs
            r_used[:] = ru
            l_slot[:] = ls
            l_used[:] = lu
            injections = ck.injections
            n_pebbles = ck.pebbles
            n_messages = ck.messages
            makespan = ck.makespan
            first_top = ck.first_top
            n_cancelled = ck.counters.get("cancelled", 0)
            n_wins = ck.counters.get("raced_wins", 0)
            n_losses = ck.counters.get("raced_losses", 0)
            if ck.step_done is None:
                # A pre-step-latency checkpoint cannot finish
                # bit-identically (the resumed run's distribution would
                # miss the prefix) — fall back to a full recompute.
                from repro.delta import DeltaUnsupported

                raise DeltaUnsupported(
                    "checkpoint predates step-latency capture "
                    "(no step_done)"
                )
            for t, v in enumerate(ck.step_done):
                step_done[t] = v
            # Re-base pending work onto this run's horizon: every used
            # column gained (T - ck.steps) rows relative to the capture.
            remaining = ck.remaining + sum(k_of[p] for p in self.used) * (
                T - ck.steps
            )
            for t, evs in ck.events:
                if t >= len(buckets):
                    buckets.extend([] for _ in range(t - len(buckets) + 1))
                buckets[t].extend(evs)
                pending_events += len(evs)
            now = ck.time

        stride = self.checkpoint_stride
        next_mark = stride * (now // stride + 1) if stride is not None else None

        def capture(at: int) -> None:
            """Snapshot the full loop state with processed times < at."""
            events = []
            for t in range(at, len(buckets)):
                evs = buckets[t]
                if evs:
                    events.append((t, list(evs)))
            tl_snap = None
            if self.telemetry is not None:
                tl_snap = self._telemetry_prefix(
                    buckets,
                    at,
                    base_snapshot=None if ck is None else ck.telemetry,
                    start=0 if ck is None else ck.time,
                    watermarks=None if ck is None else ck.watermarks,
                )
            self.checkpoints.append(
                ExecutorCheckpoint(
                    time=at,
                    epoch=0,
                    label="stride",
                    remaining=remaining,
                    makespan=makespan,
                    progress=n_pebbles,
                    pebbles=n_pebbles,
                    messages=n_messages,
                    injections=injections,
                    lost_messages=0,
                    retries=0,
                    watermarks={
                        p: [int(x) for x in W_of[p]] for p in self.used
                    },
                    busy={p: bool(busy[p]) for p in self.used},
                    link_state=[
                        list(r_slot), list(r_used), list(l_slot), list(l_used)
                    ],
                    steps=T,
                    kind="dense",
                    first_top=first_top,
                    events=events,
                    telemetry=tl_snap,
                    step_done=list(step_done),
                    counters=(
                        {
                            "cancelled": n_cancelled,
                            "raced_wins": n_wins,
                            "raced_losses": n_losses,
                        }
                        if self.fanout > 1
                        else {}
                    ),
                    fanout=self.fanout,
                )
            )

        while pending_events:
            if next_mark is not None and now >= next_mark:
                capture(now)
                next_mark = stride * (now // stride + 1)
            bucket = buckets[now]
            if not bucket:
                now += 1
                continue
            for ev in bucket:
                if ev[0] == _DONE:
                    _, p, i, t = ev
                    busy[p] = False
                    W_of[p][i] = t
                    n_pebbles += 1
                    remaining -= 1
                    if now > makespan:
                        makespan = now
                    if now > step_done[t]:
                        step_done[t] = now
                    if t == T and first_top is None:
                        first_top = now
                    c = lo_of[p] + i
                    subs = subscribers_get((p, c))
                    if subs:
                        if len(subs) == 1:
                            dst = subs[0]
                            n_messages += 1
                            if dst > p:
                                j = p
                                slot, used_ = r_slot[j], r_used[j]
                                if now > slot:
                                    slot, used_ = now, 1
                                elif used_ < bw:
                                    used_ += 1
                                else:
                                    slot, used_ = slot + 1, 1
                                r_slot[j], r_used[j] = slot, used_
                                injections += 1
                                arr = slot + delays[j]
                                if arr >= len(buckets):
                                    buckets.extend(
                                        [] for _ in range(arr - len(buckets) + 1)
                                    )
                                buckets[arr].append((_MSG, p + 1, dst, c, t))
                            else:
                                j = p - 1
                                slot, used_ = l_slot[j], l_used[j]
                                if now > slot:
                                    slot, used_ = now, 1
                                elif used_ < bw:
                                    used_ += 1
                                else:
                                    slot, used_ = slot + 1, 1
                                l_slot[j], l_used[j] = slot, used_
                                injections += 1
                                arr = slot + delays[j]
                                if arr >= len(buckets):
                                    buckets.extend(
                                        [] for _ in range(arr - len(buckets) + 1)
                                    )
                                buckets[arr].append((_MSG, p - 1, dst, c, t))
                            pending_events += 1
                        else:
                            # Whole-stream send: batch-assign slots per
                            # direction (right first, then left — the
                            # greedy engine's hop_many order), then push
                            # per subscriber in list order.  Wide
                            # streams take the closed-form slot math:
                            # injection j lands in slot0+(used0+j)//bw.
                            n_right = 0
                            for dst in subs:
                                if dst > p:
                                    n_right += 1
                            right_arr: list[int] = []
                            if n_right:
                                j = p
                                slot, used_ = r_slot[j], r_used[j]
                                if now > slot:
                                    slot, used_ = now, 0
                                d = delays[j]
                                if n_right >= _VEC_MIN_SUBS:
                                    base = slot + d
                                    right_arr = (
                                        base
                                        + np.arange(used_, used_ + n_right) // bw
                                    ).tolist()
                                    occ = used_ + n_right - 1
                                    slot, used_ = slot + occ // bw, occ % bw + 1
                                else:
                                    for _k in range(n_right):
                                        if used_ < bw:
                                            used_ += 1
                                        else:
                                            slot, used_ = slot + 1, 1
                                        right_arr.append(slot + d)
                                r_slot[j], r_used[j] = slot, used_
                                injections += n_right
                            n_left = len(subs) - n_right
                            left_arr: list[int] = []
                            if n_left:
                                j = p - 1
                                slot, used_ = l_slot[j], l_used[j]
                                if now > slot:
                                    slot, used_ = now, 0
                                d = delays[j]
                                if n_left >= _VEC_MIN_SUBS:
                                    base = slot + d
                                    left_arr = (
                                        base
                                        + np.arange(used_, used_ + n_left) // bw
                                    ).tolist()
                                    occ = used_ + n_left - 1
                                    slot, used_ = slot + occ // bw, occ % bw + 1
                                else:
                                    for _k in range(n_left):
                                        if used_ < bw:
                                            used_ += 1
                                        else:
                                            slot, used_ = slot + 1, 1
                                        left_arr.append(slot + d)
                                l_slot[j], l_used[j] = slot, used_
                                injections += n_left
                            n_messages += len(subs)
                            ri = li = 0
                            top = len(buckets)
                            for dst in subs:
                                if dst > p:
                                    arr = right_arr[ri]
                                    ri += 1
                                    item = (_MSG, p + 1, dst, c, t)
                                else:
                                    arr = left_arr[li]
                                    li += 1
                                    item = (_MSG, p - 1, dst, c, t)
                                if arr >= top:
                                    buckets.extend(
                                        [] for _ in range(arr - top + 1)
                                    )
                                    top = len(buckets)
                                buckets[arr].append(item)
                            pending_events += len(subs)
                    elif racing:
                        rsubs = raced_get((p, c))
                        if rsubs:
                            for dst, wi in rsubs:
                                if W_of[dst][wi] >= t:
                                    # The race for (c, t) is over: cancel
                                    # at the source, using no link slot.
                                    n_cancelled += 1
                                else:
                                    n_messages += 1
                                    race_hop(p, dst, c, t, wi, p, now)
                    try_start(p, now)
                elif racing and ev[0] == _RMSG:
                    # A raced copy: the first in-order one wins, later
                    # duplicates lose.
                    _, pos, dst, c, t, wi, src = ev
                    w = W_of[dst]
                    if pos == dst:
                        have = w[wi]
                        if t == have + 1:
                            w[wi] = t
                            n_wins += 1
                            try_start(pos, now)
                        elif t <= have:
                            n_losses += 1
                        else:  # pragma: no cover - invariant guard
                            raise AssertionError(
                                f"out-of-order delivery of ({c},{t}) at "
                                f"{pos}: have {have}"
                            )
                    elif w[wi] >= t:
                        # Cancelled in flight: the subscriber is past
                        # this pebble, stop relaying it.
                        n_cancelled += 1
                    else:
                        race_hop(pos, dst, c, t, wi, src, now)
                else:  # _MSG
                    _, pos, dst, c, t = ev
                    if pos == dst:
                        w = W_of[pos]
                        wi = ext_idx[pos][c]
                        if t != w[wi] + 1:  # pragma: no cover
                            raise AssertionError(
                                f"out-of-order delivery of ({c},{t}) at "
                                f"{pos}: have {w[wi]}"
                            )
                        w[wi] = t
                        try_start(pos, now)
                    else:
                        # Relay one hop toward the target.
                        if dst > pos:
                            j = pos
                            slot, used_ = r_slot[j], r_used[j]
                            if now > slot:
                                slot, used_ = now, 1
                            elif used_ < bw:
                                used_ += 1
                            else:
                                slot, used_ = slot + 1, 1
                            r_slot[j], r_used[j] = slot, used_
                            injections += 1
                            arr = slot + delays[j]
                            nxt = pos + 1
                        else:
                            j = pos - 1
                            slot, used_ = l_slot[j], l_used[j]
                            if now > slot:
                                slot, used_ = now, 1
                            elif used_ < bw:
                                used_ += 1
                            else:
                                slot, used_ = slot + 1, 1
                            l_slot[j], l_used[j] = slot, used_
                            injections += 1
                            arr = slot + delays[j]
                            nxt = pos - 1
                        if arr >= len(buckets):
                            buckets.extend(
                                [] for _ in range(arr - len(buckets) + 1)
                            )
                        buckets[arr].append((_MSG, nxt, dst, c, t))
                        pending_events += 1
            pending_events -= len(bucket)
            now += 1

        if remaining:  # pragma: no cover - the skeleton cannot wedge
            raise RuntimeError(f"{remaining} pebbles never computed")
        self.first_top_t = first_top
        stats.pebbles = n_pebbles
        stats.messages = n_messages
        stats.pebble_hops = injections
        stats.record_step_latency(latencies_from_completions(step_done))
        self._racing_extras(stats, n_cancelled, n_wins, n_losses)
        if self.telemetry is not None:
            self._feed_telemetry(
                buckets,
                makespan,
                start=0 if ck is None else ck.time,
                snapshot=None if ck is None else ck.telemetry,
                watermarks=None if ck is None else ck.watermarks,
            )
        return makespan

    def _raced_streams(self, ext_idx: list) -> dict:
        """``(provider, column) -> ((subscriber, watermark slot), ...)``
        for every stream of a raced column, in subscription order."""
        raced_cols = self._raced_cols
        return {
            (q, c): tuple((d, ext_idx[d][c]) for d in subs)
            for (q, c), subs in self.subscribers.items()
            if c in raced_cols
        }

    def _racing_extras(
        self, stats: SimStats, cancelled: int, wins: int, losses: int
    ) -> None:
        """The racing counters, under the greedy engine's extras keys
        (raced runs only)."""
        if self.fanout > 1:
            stats.extras["cancelled_messages"] = cancelled
            stats.extras["raced_wins"] = wins
            stats.extras["raced_losses"] = losses

    def _feed_telemetry(
        self,
        buckets: list[list[tuple]],
        makespan: int,
        start: int = 0,
        snapshot: dict | None = None,
        watermarks: dict | None = None,
    ) -> None:
        """Replay the retained event buckets into the attached timeline.

        Runs *after* the timed loop (buckets are append-only, so they
        still hold the complete event history).  On a resumed run the
        prefix history comes from the checkpoint's timeline
        ``snapshot`` and only buckets from ``start`` on are replayed
        (buckets before the resume point are empty in that run); the
        race replay then starts from the checkpoint's ``watermarks``.
        """
        tl = self.telemetry
        if snapshot is not None:
            tl.load_snapshot(snapshot)
        tl.meta.setdefault("engine", "dense")
        if snapshot is None:
            tl.spans.begin("epoch", 0, track="epochs", epoch=0)
        self._replay_buckets(tl, buckets, start, watermarks=watermarks)
        tl.spans.close_all(makespan)

    def _replay_buckets(
        self,
        tl,
        buckets: list[list[tuple]],
        start: int = 0,
        stop: int | None = None,
        watermarks: dict | None = None,
    ) -> None:
        """Feed bucket events in ``[start, stop)`` into timeline ``tl``.

        Produces exactly the per-step counters the greedy loop records
        on a fault-free run: a ``_DONE`` at step ``now`` is one pebble
        completion (and one message launch per subscriber of that
        column); a ``_MSG``/``_RMSG`` at step ``now`` is one link
        arrival whose injection slot was ``now - delay`` of the link it
        arrived on (dense computes arrivals as ``slot + delay``, so the
        subtraction is exact).  Raced copies replay the race itself:
        whether a copy is cancelled (at the source or a relay hop) or
        delivered as the winner depends only on its raced slot's
        watermark, tracked here from 0 — or from the resume
        checkpoint's ``watermarks``.
        """
        delays = self.host.link_delays
        subscribers_get = self.subscribers.get
        raced_cols = self._raced_cols
        # A _MSG event carries its final target, not its travel
        # direction: when it *reaches* the target the arriving link is
        # recovered from which side the providing owner sits on.
        provider_of: dict[tuple[int, int], int] = {}
        for (q, c), subs in self.subscribers.items():
            if c not in raced_cols:
                for p in subs:
                    provider_of[(p, c)] = q
        race_w: dict[tuple[int, int], int] = {}
        lo_of = {}
        for p in self.used:
            lo, hi = self.assignment.ranges[p]
            lo_of[p] = lo
            for j, c in enumerate(self._ext_cols[p]):
                if c in raced_cols:
                    race_w[(p, c)] = (
                        0 if watermarks is None
                        else watermarks[p][hi - lo + 1 + j]
                    )
        pebble = tl.pebble
        send = tl.send
        message = tl.message
        deliver = tl.deliver
        cancel = tl.cancel
        stop = len(buckets) if stop is None else min(stop, len(buckets))
        for now in range(start, stop):
            for ev in buckets[now]:
                kind = ev[0]
                if kind == _DONE:
                    _, p, i, t = ev
                    c = lo_of[p] + i
                    pebble(now, p, c, t)
                    subs = subscribers_get((p, c))
                    if not subs:
                        continue
                    if c in raced_cols:
                        gone = sum(race_w[(d, c)] >= t for d in subs)
                        if gone:
                            cancel(now, gone)
                        if gone < len(subs):
                            message(now, len(subs) - gone)
                    else:
                        message(now, len(subs))
                elif kind == _MSG:
                    _, pos, dst, c, t = ev
                    if pos == dst:
                        rightward = pos > provider_of[(pos, c)]
                        deliver(now)
                    else:
                        rightward = dst > pos
                    j = pos - 1 if rightward else pos
                    send(now - delays[j], now)
                else:  # _RMSG: copies travel straight from src to dst
                    _, pos, dst, c, t, _wi, src = ev
                    send(now - delays[pos - 1 if pos > src else pos], now)
                    have = race_w[(dst, c)]
                    if pos == dst:
                        if t == have + 1:
                            race_w[(dst, c)] = t
                            deliver(now)
                    elif have >= t:
                        cancel(now)

    def _telemetry_prefix(
        self,
        buckets: list[list[tuple]],
        stop: int,
        base_snapshot: dict | None = None,
        start: int = 0,
        watermarks: dict | None = None,
    ) -> dict:
        """Timeline snapshot of the run's history strictly before
        ``stop`` (checkpoint capture helper).

        For a resumed run the history before this run's own buckets is
        the ``base_snapshot`` it was restored from; ``start`` is its
        resume point and ``watermarks`` the restored watermark arrays.
        """
        from repro.telemetry.timeline import MetricsTimeline

        tmp = MetricsTimeline()
        if base_snapshot is not None:
            tmp.load_snapshot(base_snapshot)
        else:
            tmp.spans.begin("epoch", 0, track="epochs", epoch=0)
        tmp.meta.setdefault("engine", "dense")
        self._replay_buckets(tmp, buckets, start, stop, watermarks)
        return tmp.snapshot()

    def run(self):
        """Execute; returns an :class:`~repro.core.executor.ExecResult`
        bit-identical to the greedy engine's."""
        from repro.core.executor import ExecResult

        stats = SimStats()
        makespan = self._simulate_timing(stats)
        stats.makespan = makespan
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
                # Programs apply() functionally, but keep replicas from
                # aliasing one container object all the same.
                if isinstance(state, dict):
                    state = dict(state)
                elif isinstance(state, list):
                    state = list(state)
                result.replicas[(p, c)] = Database(
                    label(c), state, T, db_digests[c - 1]
                )
        return result


def build_executor(
    engine: str,
    host: HostArray,
    assignment: Assignment,
    program: Program,
    steps: int,
    bandwidth: int | None = None,
    **greedy_kwargs,
):
    """Resolve the tier and construct the matching executor.

    ``greedy_kwargs`` are the feature knobs (``faults``, ``policy``,
    ``trace``, ``exec_policy``, ``checkpoint_stride``, ...).
    ``checkpoint_stride`` reaches both dense classes and is ignored by
    the greedy engine.  Tracing, multicast, ``tie_seed`` and racing
    under a non-empty fault plan force (or, under
    ``engine='auto'``, silently select) the greedy engine.
    ``telemetry``, ``dep_map``/``col_label``, fault plans and fault-free
    racing do not: both tiers support an attached
    :class:`~repro.telemetry.timeline.MetricsTimeline`, relabelled
    (ring) guests and raced subscriptions (the ``exec_policy``'s
    :attr:`~repro.core.racing.ExecPolicy.issue_fanout`), and a
    non-empty ``faults`` plan on the dense tier constructs the
    segmented :class:`~repro.core.dense_faults.FaultedDenseExecutor`.
    """
    from repro.core.executor import GreedyExecutor

    resolved = resolve_engine(
        engine,
        faults=greedy_kwargs.get("faults"),
        trace=greedy_kwargs.get("trace"),
        multicast=greedy_kwargs.get("multicast", False),
        tie_seed=greedy_kwargs.get("tie_seed"),
        exec_policy=greedy_kwargs.get("exec_policy"),
    )
    checkpoint_stride = greedy_kwargs.pop("checkpoint_stride", None)
    if resolved == "dense":
        from repro.core.racing import resolve_policy

        # Stealing is already applied; only the racing fanout is left.
        exec_policy = resolve_policy(greedy_kwargs.pop("exec_policy", None))
        faults = greedy_kwargs.get("faults")
        if faults is not None and not faults.is_empty:
            from repro.core.dense_faults import FaultedDenseExecutor

            return FaultedDenseExecutor(
                host,
                assignment,
                program,
                steps,
                bandwidth,
                dep_map=greedy_kwargs.get("dep_map"),
                col_label=greedy_kwargs.get("col_label"),
                telemetry=greedy_kwargs.get("telemetry"),
                faults=faults,
                policy=greedy_kwargs.get("policy"),
                reassign=greedy_kwargs.get("reassign"),
                checkpoint_stride=checkpoint_stride,
            )
        return DenseExecutor(
            host,
            assignment,
            program,
            steps,
            bandwidth,
            dep_map=greedy_kwargs.get("dep_map"),
            col_label=greedy_kwargs.get("col_label"),
            telemetry=greedy_kwargs.get("telemetry"),
            checkpoint_stride=checkpoint_stride,
            fanout=exec_policy.issue_fanout,
        )
    return GreedyExecutor(
        host, assignment, program, steps, bandwidth, **greedy_kwargs
    )
