"""The benchmark's own tracing: timing wrappers around layer boundaries.

Nothing under ``src/`` knows about this file.  :class:`Recorder`
replaces the layers' public callables with wrappers that record
``(id, parent, request, name, start, end)`` in memory; the server
writes them out when it shuts down.  Spans recorded inside pool
workers go to a per-pid spool file instead, because a worker has no
shutdown hook of its own.  All clocks are ``time.perf_counter``, which
on Linux is one system-wide monotonic clock, so spans from different
processes share a time axis.

How a span finds its parent:

* same thread — a per-thread stack of open spans;
* ``serve.submit`` (event loop) -> engine ``execute`` (serve thread) —
  by identity of the ``Query`` object handed across;
* ``shard.execute`` -> replica ``engine.execute`` (scatter thread) — by
  identity of the query's ``cancel`` token, which every layer forwards;
* ``pool.roundtrip`` -> worker — the shipped function is wrapped in
  :func:`_remote`, which carries the round-trip's id across the pickle.

The second half of the file turns recorded spans into layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from stats import percentile, union_length

#: Set by :meth:`Recorder.install`; :func:`_remote` runs in forked
#: workers, which can reach the recorder only through the module.
_ACTIVE: Optional["Recorder"] = None


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    rid: Optional[int]  # request: the id of the tree's root span
    name: str
    t0: float
    t1: float
    attrs: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _remote(arg):
    """Run a shipped task under its round-trip span (worker side)."""
    roundtrip, rid, fn, payload = arg
    stack = _ACTIVE._stack()
    stack.append((roundtrip, rid))
    try:
        return fn(payload)
    finally:
        stack.pop()


def _engine_keys(args, kwargs) -> List[int]:
    # The cancel token first: a replica engine may receive the very
    # Query object the front-end submitted, which would lead it past
    # its shard span to the submit span.
    keys = []
    if kwargs.get("cancel") is not None:
        keys.append(id(kwargs["cancel"]))
    keys.append(id(args[1]))
    return keys


def _phases(out) -> Optional[Dict[str, float]]:
    """Distribute/sweep/gather seconds from the engine's own trace tree."""
    if getattr(out, "trace", None) is None:
        return None
    attrs = {}
    for phase in ("distribute", "sweep", "gather"):
        found = out.trace.find_all(phase)
        if found:
            attrs[phase] = sum(s.wall_seconds for s in found)
    return attrs or None


def _tile_rects(payload) -> int:
    side_a, side_b = payload[2], payload[3]

    def n(side) -> int:
        return side.count if hasattr(side, "segment") else len(side)

    return n(side_a) + (n(side_b) if side_b is not None else 0)


class Recorder:
    def __init__(self, out_dir: str, tag: str) -> None:
        self.out_dir, self.tag = out_dir, tag
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._handoff: Dict[int, tuple] = {}
        self._ids = itertools.count(1)
        self._spool = None
        self._spool_pid = -1

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def wrap(self, name: str, fn: Callable,
             keys: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span; ``keys`` name objects that cross threads."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            handoff = keys(args, kwargs) if keys else ()
            parent = rid = None
            if stack:
                parent, rid = stack[-1]
            else:
                for key in handoff:
                    if key in rec._handoff:
                        parent, rid = rec._handoff[key]
                        break
            sid = rec._new_id()
            me = (sid, rid or sid)
            # Only the outermost span owns a key: a replica engine must
            # not shadow the shard span its sibling is still looking for.
            mine = [k for k in handoff
                    if rec._handoff.setdefault(k, me) is me]
            stack.append(me)
            attrs = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    attrs = after(out)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                for k in mine:
                    del rec._handoff[k]
                rec.spans.append((sid, parent, me[1], name, t0, t1, attrs))

        return wrapper

    def _wrap_submit(self, fn: Callable) -> Callable:
        """``ServingFrontend.submit``: a coroutine, so a root without a stack."""
        rec = self

        @functools.wraps(fn)
        async def submit(self_, query, *args, **kwargs):
            sid = rec._new_id()
            rec._handoff[id(query)] = (sid, sid)
            t0 = time.perf_counter()
            try:
                return await fn(self_, query, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                del rec._handoff[id(query)]
                rec.spans.append(
                    (sid, None, sid, "serve.submit", t0, t1, None))

        return submit

    def _wrap_pool_submit(self, fn: Callable) -> Callable:
        """``PoolClient.submit``: a span from submit to the future's done."""
        rec = self

        @functools.wraps(fn)
        def submit(self_, task, payload, units=1):
            stack = rec._stack()
            parent, rid = stack[-1] if stack else (None, None)
            sid = rec._new_id()
            t0 = time.perf_counter()
            fut = fn(self_, _remote, (sid, rid, task, payload), units)
            if hasattr(fut, "add_done_callback"):  # not an inline future
                fut.add_done_callback(lambda _f: rec.spans.append(
                    (sid, parent, rid, "pool.roundtrip", t0,
                     time.perf_counter(), None)))
            return fut

        return submit

    def _wrap_task(self, fn: Callable, rects_of: Callable) -> Callable:
        """A sweep task, recorded only when it runs in a pool worker."""
        rec = self

        @functools.wraps(fn)
        def task(payload):
            if (os.getpid() == rec.pid
                    or getattr(rec._local, "in_task", False)):
                # Inline on the coordinator (that is executor time), or
                # a tile inside a batch (the batch is the task).
                return fn(payload)
            stack = rec._stack()
            parent, rid = stack[-1] if stack else (None, None)
            rec._local.in_task = True
            t0 = time.perf_counter()
            try:
                return fn(payload)
            finally:
                t1 = time.perf_counter()
                rec._local.in_task = False
                rec._spool_write(
                    (rec._new_id(), parent, rid, "kernels.task", t0, t1,
                     {"rects": rects_of(payload)}))

        return task

    def _spool_write(self, span: tuple) -> None:
        if self._spool_pid != os.getpid():
            self._spool_pid = os.getpid()
            self._spool = open(os.path.join(
                self.out_dir, f"spool-{self.tag}-{self._spool_pid}.jsonl"
            ), "a")
        self._spool.write(json.dumps(span) + "\n")
        self._spool.flush()

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary; call before the worker pool forks."""
        global _ACTIVE
        from repro.engine import cache, engine, executor, optimizer
        from repro.engine import pool, serve, shard

        _ACTIVE = self
        os.makedirs(self.out_dir, exist_ok=True)
        serve.parse_query_body = self.wrap(
            "serve.parse", serve.parse_query_body)
        serve.ServingFrontend.submit = self._wrap_submit(
            serve.ServingFrontend.submit)
        shard.ShardedEngine.execute = self.wrap(
            "shard.execute", shard.ShardedEngine.execute, _engine_keys)
        engine.SpatialQueryEngine.execute = self.wrap(
            "engine.execute", engine.SpatialQueryEngine.execute,
            _engine_keys, _phases)
        for cls, prefix in ((cache.ResultCache, "cache.result"),
                            (cache.ArtifactCache, "cache.artifact")):
            cls.get = self.wrap(f"{prefix}_get", cls.get)
            cls.put = self.wrap(f"{prefix}_put", cls.put)
        optimizer.Optimizer.compile = self.wrap(
            "optimizer.compile", optimizer.Optimizer.compile)
        executor.Executor.execute = self.wrap(
            "executor.execute", executor.Executor.execute)
        pool.PoolClient.submit = self._wrap_pool_submit(
            pool.PoolClient.submit)
        executor.sweep_tile_task = self._wrap_task(
            executor.sweep_tile_task, _tile_rects)
        executor.sweep_tile_batch_task = self._wrap_task(
            executor.sweep_tile_batch_task,
            lambda payloads: sum(_tile_rects(p) for p in payloads))

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.tag}.json")
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load(out_dir: str, tag: str) -> List[Span]:
    """Coordinator spans plus every worker's spool, for one server run."""
    rows: List[list] = []
    with open(os.path.join(out_dir, f"spans-{tag}.json")) as fh:
        rows.extend(json.load(fh))
    for name in sorted(os.listdir(out_dir)):
        if name.startswith(f"spool-{tag}-"):
            with open(os.path.join(out_dir, name)) as fh:
                rows.extend(json.loads(line) for line in fh)
    return [Span(*row) for row in rows]


# -- analysis ----------------------------------------------------------------


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_seconds(span: Span, kids: List[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = union_length(
        (max(k.t0, span.t0), min(k.t1, span.t1)) for k in kids
        if k.t1 > span.t0 and k.t0 < span.t1)
    return span.seconds - covered


def trace_metrics(spans: List[Span], t0: float, t1: float,
                  workers: int) -> Dict[str, float]:
    """The span-derived (source T) layer metrics over ``[t0, t1]``.

    Only spans that start inside the timed pass count, so warm-up and
    scrapes stay out.  Milliseconds unless the name says otherwise.
    """
    spans = [s for s in spans if t0 <= s.t0 <= t1]
    kids = children_of(spans)
    by_id = {s.sid: s for s in spans}
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def p(values, q: float, scale: float = 1e3) -> float:
        return percentile(values, q, strict=False) * scale

    def durations(name: str) -> List[float]:
        return [s.seconds for s in by_name[name]]

    def selfs(name: str) -> List[float]:
        return [self_seconds(s, kids[s.sid]) for s in by_name[name]]

    def phase(name: str) -> List[float]:
        return [s.attrs[name] for s in by_name["engine.execute"]
                if s.attrs and name in s.attrs]

    tasks = by_name["kernels.task"]
    busy = sum(s.seconds for s in tasks)
    rects = sum(s.attrs["rects"] for s in tasks)
    scatter_wait = [
        s.t0 - by_id[s.parent].t0 for s in by_name["engine.execute"]
        if s.parent in by_id and by_id[s.parent].name == "shard.execute"
    ]
    return {
        "serve.submit_self_ms_p50": p(selfs("serve.submit"), 0.5),
        "serve.parse_us_p50": p(durations("serve.parse"), 0.5, 1e6),
        "engine.execute_ms_p50": p(durations("engine.execute"), 0.5),
        "engine.self_ms_p50": p(selfs("engine.execute"), 0.5),
        "cache.result_get_us_p50":
            p(durations("cache.result_get"), 0.5, 1e6),
        "cache.result_put_us_p50":
            p(durations("cache.result_put"), 0.5, 1e6),
        "optimizer.compile_ms_p50":
            p(durations("optimizer.compile"), 0.5),
        "executor.execute_ms_p50": p(durations("executor.execute"), 0.5),
        "executor.execute_ms_p95": p(durations("executor.execute"), 0.95),
        "executor.coordinator_ms_p50": p([
            self_seconds(s, [k for k in kids[s.sid]
                             if k.name == "pool.roundtrip"])
            for s in by_name["executor.execute"]], 0.5),
        "executor.phase.distribute_ms_p50": p(phase("distribute"), 0.5),
        "executor.phase.sweep_ms_p50": p(phase("sweep"), 0.5),
        "executor.phase.gather_ms_p50": p(phase("gather"), 0.5),
        "pool.roundtrip_ms_p50": p(durations("pool.roundtrip"), 0.5),
        "pool.queue_wait_ms_p50": p(selfs("pool.roundtrip"), 0.5),
        "pool.worker_busy_share": busy / (workers * (t1 - t0)),
        "kernels.task_ms_p50": p(durations("kernels.task"), 0.5),
        "kernels.task_ms_p95": p(durations("kernels.task"), 0.95),
        "kernels.rects_per_busy_s": rects / busy if busy else 0.0,
        "shard.execute_ms_p50": p(durations("shard.execute"), 0.5),
        "shard.self_ms_p50": p(selfs("shard.execute"), 0.5),
        "shard.scatter_wait_ms_p50": p(scatter_wait, 0.5),
    }
