"""Per-query span trees: phase-level attribution for the engine.

The serving metrics (:mod:`repro.engine.metrics`) answer *how much* —
cumulative pages, ops and seconds over an engine's lifetime.  They
cannot answer *where one query spent its time*: when a skewed grid
serves a seventh of its simulated q/s on the wall clock, nothing in a
flat counter bag says whether the gap is the scan, the distribute, the
pickle boundary or the sweeps.  A :class:`Span` tree answers that
question per query:

    query
    ├── lookup                (result-cache probe)
    ├── plan                  (optimizer, incl. lazy catalog builds)
    ├── execute
    │   ├── distribute        (scan + partition + spill)
    │   ├── sweep
    │   │   ├── sweep-task    (one pool task: solo tile or batch)
    │   │   └── ...
    │   └── gather            (future drain + merge)
    └── finalize              (result-cache fill)

A sharded query wraps the same shape: the scatter span adopts each
shard engine's whole ``query`` tree as a ``shard`` subtree (tagged
with the replica that served it), and degradations appear as extra
scatter children — a ``failover`` span per failed replica attempt
(shard, replica, error type, attempt number).

Every span carries **wall seconds** (host clock) and the **simulated**
story of the same stretch — io/cpu seconds on the engine's machine plus
the raw page/byte/op deltas — so the wall-vs-sim throughput gap can be
read off one tree.  Sweep-task spans are recorded *inside* the pool
worker (a plain picklable dict, shipped back attached to the task
result) and grafted under the coordinator's ``sweep`` span; serial,
thread and process pools all produce the same tree shape.

Tracing is strictly opt-in and zero-cost when off: every call site
guards on ``trace is not None``, and :func:`span_meter` returns a
shared null context manager instead of allocating when no trace is
active.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

#: Numeric fields every span carries (and ``to_dict`` emits).  The
#: trace-schema validator and the CI checker key off this list, so the
#: span model and its JSON form cannot drift apart silently.
SPAN_METRIC_FIELDS = (
    "wall_seconds",
    "sim_io_seconds",
    "sim_cpu_seconds",
    "cpu_ops",
    "pages_read",
    "pages_written",
    "bytes_read",
    "bytes_written",
)


class Span:
    """One node of a query's trace tree.

    A span is deliberately dumb storage — no clock of its own, no
    global registry.  The engine/executor fill the timing and counter
    fields, usually through :class:`EnvMeter`; worker-side spans are
    built as dicts in the pool task and converted with
    :meth:`from_task`.
    """

    __slots__ = (
        "name", "attrs", "children",
        "wall_seconds", "sim_io_seconds", "sim_cpu_seconds",
        "cpu_ops", "pages_read", "pages_written",
        "bytes_read", "bytes_written",
    )

    def __init__(self, name: str, **attrs: object) -> None:
        self.name = name
        self.attrs: Dict[str, object] = attrs
        self.children: List["Span"] = []
        self.wall_seconds = 0.0
        self.sim_io_seconds = 0.0
        self.sim_cpu_seconds = 0.0
        self.cpu_ops = 0
        self.pages_read = 0
        self.pages_written = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def child(self, name: str, **attrs: object) -> "Span":
        """Append and return a new child span."""
        span = Span(name, **attrs)
        self.children.append(span)
        return span

    def adopt(self, span: "Span") -> "Span":
        """Graft an existing span (e.g. a shard subtree) under this one."""
        self.children.append(span)
        return span

    # -- inspection ------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in depth-first order, or None."""
        for s in self.walk():
            if s.name == name:
                return s
        return None

    def find_all(self, name: str) -> List["Span"]:
        return [s for s in self.walk() if s.name == name]

    def shape(self) -> Tuple:
        """The tree's structure only: ``(name, (child shapes...))``.

        Two traces with the same shape went through the same phases
        with the same fan-out — the invariant the pool-kind tests
        assert (serial, thread and process execution differ in *where*
        work ran, never in what the trace looks like).
        """
        return (self.name, tuple(c.shape() for c in self.children))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (attrs copied, children recursed)."""
        d: Dict[str, object] = {"name": self.name}
        for f in SPAN_METRIC_FIELDS:
            d[f] = getattr(self, f)
        d["attrs"] = dict(self.attrs)
        d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_task(cls, task: Dict[str, object],
                  seconds_per_op: float) -> "Span":
        """A worker task's span dict, priced on the coordinator.

        Workers know their wall time and op count but not the engine's
        machine; simulated CPU seconds are derived here so every task
        span is priced on the same machine as the rest of the tree.
        """
        span = cls(str(task.get("name", "sweep-task")))
        span.wall_seconds = float(task.get("wall_seconds", 0.0))
        span.cpu_ops = int(task.get("cpu_ops", 0))
        span.sim_cpu_seconds = span.cpu_ops * seconds_per_op
        for key in ("part", "tiles", "pairs", "dups", "pid"):
            if key in task:
                span.attrs[key] = task[key]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall={self.wall_seconds:.6f}s, "
            f"ops={self.cpu_ops}, children={len(self.children)})"
        )


class EnvMeter:
    """Context manager delta-metering one span against the sim env.

    Snapshots the environment's page/byte/op counters, the machine
    observer's io/cpu seconds and the host clock on entry; on exit the
    deltas are *added* to the span (a span may be metered over several
    disjoint stretches).  Parent and child spans may meter the same
    environment concurrently — a parent's deltas naturally include its
    children's, which is exactly what a span tree means.
    """

    __slots__ = ("env", "obs", "span", "_t0", "_before")

    def __init__(self, env, machine, span: Span) -> None:
        self.env = env
        self.obs = env.observer_for(machine)
        self.span = span

    def __enter__(self) -> Span:
        env, obs = self.env, self.obs
        self._before = (
            env.page_reads, env.page_writes,
            env.bytes_read, env.bytes_written, env.cpu_ops,
            obs.io_seconds, obs.cpu_seconds,
        )
        self._t0 = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        env, obs, span = self.env, self.obs, self.span
        before = self._before
        span.wall_seconds += time.perf_counter() - self._t0
        span.pages_read += env.page_reads - before[0]
        span.pages_written += env.page_writes - before[1]
        span.bytes_read += env.bytes_read - before[2]
        span.bytes_written += env.bytes_written - before[3]
        span.cpu_ops += env.cpu_ops - before[4]
        span.sim_io_seconds += obs.io_seconds - before[5]
        span.sim_cpu_seconds += obs.cpu_seconds - before[6]


#: Shared no-op context for untraced call sites: ``span_meter`` with no
#: active trace costs one truthiness test and no allocation.
_NULL_CM = nullcontext(None)


def span_meter(env, machine, parent: Optional[Span], name: str,
               **attrs: object):
    """A metered child span of ``parent``, or a shared null context.

    The one guard every traced call site uses::

        with span_meter(env, machine, trace, "plan") as span:
            plan = optimizer.compile(query)   # span is None when off
    """
    if parent is None:
        return _NULL_CM
    return EnvMeter(env, machine, parent.child(name, **attrs))
