"""Spans around the public entry points of each layer.

:class:`Tracer` replaces each entry point in :data:`TARGETS` with a
wrapper, at the name its callers look up, that records one span per
call: ``[id, name, start, end, parent id, request id, attrs]``.  The
parent is the span open in the caller's context (a
:class:`contextvars.ContextVar`, so concurrent asyncio requests keep
separate stacks); work handed to another thread or process starts a new
root there.  Spans stay in memory until the benchmark writes them out.

Executor spans carry the simulated counts of the result they return,
and cache writes and checkpoint reads carry the bytes they touched, so
the per-layer numbers are read where the work happens.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import os
import time

#: id of the span open in the current context (None at a root)
PARENT = contextvars.ContextVar("perfbench_parent", default=None)
#: request id of the current context (grid config, edit or request)
REQUEST = contextvars.ContextVar("perfbench_request", default=None)

#: (module, attribute path): the names callers look up.  A function
#: imported by name into another module is patched there too.
TARGETS = [
    # front-ends
    ("repro.core.overlap", "simulate_overlap"),
    ("repro.service.tasks", "simulate_overlap"),
    ("repro.experiments.x5", "simulate_overlap"),
    ("repro.core.overlap", "simulate_overlap_on_graph"),
    ("repro.core.ring", "simulate_ring"),
    ("repro.service.tasks", "simulate_ring"),
    # per-run setup
    ("repro.core.overlap", "kill_and_label"),
    ("repro.core.killing", "kill_and_label"),
    ("repro.core.overlap", "assign_databases"),
    ("repro.core.assignment", "assign_databases"),
    ("repro.core.overlap", "steal_rebalance"),
    ("repro.core.assignment", "steal_rebalance"),
    ("repro.core.overlap", "embed_linear_array"),
    # executors
    ("repro.core.dense", "DenseExecutor.run"),
    ("repro.core.dense", "DenseExecutor.restore"),
    ("repro.core.dense_faults", "FaultedDenseExecutor.run"),
    ("repro.core.executor", "GreedyExecutor.run"),
    # verification
    ("repro.machine.guest", "GuestArray.run_reference"),
    ("repro.machine.guest", "GuestRing.run_reference_full"),
    ("repro.core.overlap", "verify_execution"),
    ("repro.core.ring", "verify_ring_execution"),
    # runner
    ("repro.runner", "SweepRunner.prepare"),
    ("repro.runner", "SweepRunner.map"),
    ("repro.runner", "SweepRunner.submit"),
    ("repro.runner", "SweepCache.get"),
    ("repro.runner", "SweepCache.put"),
    ("repro.runner", "SweepCache.delta_candidates"),
    ("repro.runner", "SweepCache.load_checkpoints"),
    ("repro.runner", "_match_delta"),
    # service
    ("repro.service.core", "SimulationService.submit"),
    ("repro.service.lru", "LRUCache.get"),
    ("repro.service.lru", "LRUCache.put"),
]

EXECUTOR_SPANS = ("DenseExecutor.run", "FaultedDenseExecutor.run", "GreedyExecutor.run")

#: span fields, in record order
ID, NAME, START, END, PARENT_ID, REQ, ATTRS = range(7)


def _exec_attrs(result, args, kwargs) -> dict:
    stats = result.stats
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


def _file_bytes(cache, key, *path_methods) -> int:
    """Bytes on disk of ``key``'s cache files (0 for any that is gone)."""
    total = 0
    for method in path_methods:
        path_of = getattr(cache, method, None)
        if path_of is None:
            continue
        try:
            total += os.stat(path_of(key)).st_size
        except OSError:
            pass
    return total


def _put_attrs(result, args, kwargs) -> dict:
    cache, key = args[0], args[1]
    if (kwargs.get("delta") or {}).get("checkpoints"):
        return {"bytes": _file_bytes(cache, key, "_path", "_ckpt_path")}
    return {"bytes": _file_bytes(cache, key, "_path")}


def _load_attrs(result, args, kwargs) -> dict:
    return {"bytes": _file_bytes(args[0], args[1], "_ckpt_path")}


_ATTRS = {name: _exec_attrs for name in EXECUTOR_SPANS}
_ATTRS["SweepCache.put"] = _put_attrs
_ATTRS["SweepCache.load_checkpoints"] = _load_attrs


class Tracer:
    """Installs the span wrappers and keeps the spans they record.

    Span ids are ``"<pid>:<n>"`` strings, unique across the parent and
    its pool workers.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        #: targets absent from this version of the program
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def install(self) -> None:
        # Resolve every target before patching any: a module imported
        # for the first time after a patch would bind the wrapper under
        # its own name and keep it after uninstall.
        found = []
        for module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
            else:
                found.append((owner, attr, original, path))
        for owner, attr, original, path in found:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(path, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        spans, ids, pid = self.spans, self._ids, self.pid
        attrs_of = _ATTRS.get(name)
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid = f"{pid}:{next(ids)}"
                parent = PARENT.get()
                token = PARENT.set(sid)
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    PARENT.reset(token)
                    spans.append([sid, name, t0, t1, parent, REQUEST.get(), None])

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{pid}:{next(ids)}"
            parent = PARENT.get()
            token = PARENT.set(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                PARENT.reset(token)
                spans.append([sid, name, t0, t1, parent, REQUEST.get(), None])
                raise
            t1 = clock()
            PARENT.reset(token)
            record = [sid, name, t0, t1, parent, REQUEST.get(), None]
            if attrs_of is not None:
                record[ATTRS] = attrs_of(result, args, kwargs)
            spans.append(record)
            return result

        return traced


def self_times(spans: list[list]) -> dict[str, float]:
    """Span id -> self time: its duration minus the part of it that
    its children's spans cover."""
    children: dict[str, list] = {}
    for s in spans:
        if s[PARENT_ID] is not None:
            children.setdefault(s[PARENT_ID], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            a, b = max(c[START], reach), min(c[END], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s[ID]] = (hi - lo) - covered
    return out


def reconcile(spans: list[list], selfs: dict[str, float]) -> dict:
    """Check that each root's span equals the self times of its tree.

    Returns ``{"roots", "root_s", "self_s", "max_rel_err"}``: the tree
    sums hold exactly when children nest inside their parent and do not
    overlap each other, so ``max_rel_err`` measures how far the
    recorded spans are from that.
    """
    by_id = {s[ID]: s for s in spans}
    tree_self: dict[str, float] = {}
    for s in spans:
        root = s
        while root[PARENT_ID] in by_id:
            root = by_id[root[PARENT_ID]]
        tree_self[root[ID]] = tree_self.get(root[ID], 0.0) + selfs[s[ID]]
    root_s = self_s = worst = 0.0
    for rid, total in tree_self.items():
        dur = by_id[rid][END] - by_id[rid][START]
        root_s += dur
        self_s += total
        if dur > 0:
            worst = max(worst, abs(total - dur) / dur)
    return {
        "roots": len(tree_self),
        "root_s": root_s,
        "self_s": self_s,
        "max_rel_err": worst,
    }
