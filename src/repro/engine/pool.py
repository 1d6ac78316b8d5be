"""The engine's persistent worker pool.

Before this module the partitioned executor constructed a fresh
``ThreadPoolExecutor`` inside every query and tore it down afterwards —
pool startup on the hot path, and thread workers that serialize on the
GIL while running a pure-Python sweep.  :class:`WorkerPool` inverts
both decisions:

* **one pool per engine**, created lazily on the first task that needs
  it and reused by every subsequent query (the plan's ``workers`` count
  is a scheduling hint for the simulated critical path, not a pool
  size);
* **process-based by default** (``kind="process"``), so partition
  sweeps run on separate interpreters and genuinely use the cores;
  ``kind="serial"`` executes inline on the coordinator.  There is no
  thread kind: the sweeps hold the GIL, so threads lose to running
  inline.

Tasks must therefore be shipped, not shared: the executor encodes tiles
as :class:`~repro.core.columnar.ColumnarTile` columns and workers
return plain ``(rid_a, rid_b)`` lists (see
:func:`repro.engine.executor.sweep_tile_task`).  Shipping has a real
cost — pickle both ways plus a pipe write and read — so the pool
degrades gracefully: single-worker pools run inline, and callers are
expected to keep tiny tasks on the coordinator (the executor's dispatch
policy does).  A process pool that cannot start, breaks at submit or
loses a worker (sandboxes without fork, OOM-killed children) is
demoted to ``serial`` once, where the break is seen: the lost task
is re-run inline, every later task runs on the coordinator, and
no pool is started again.

The process transport starts no thread in the coordinator.  Each forked
worker owns one duplex pipe; the thread that submits a task writes it
into a worker's pipe, and a thread waiting on a result reads the pipes
itself.  A coordinator thread that ran only to move tasks and results
would compete for the GIL with the thread that materializes the next
partition.

Submission is streaming: :meth:`submit` hands one task to the pool the
moment its partition is materialized, so coordinator-side
materialization of later partitions overlaps with worker sweeps of
earlier ones.  A task may carry several tiles (the executor's batch
shipping); ``units`` counts them, so the snapshot can report the
amortization factor (tiles per dispatched task) a skewed grid enjoys.

Since the sharded catalog, one pool may serve **several engines**.
Each engine talks to the pool through a :class:`PoolClient` — a
handle with its own dispatch counters, so per-shard activity stays
attributable while the pool keeps the shared totals (the invariant
the differential tests assert: client counters sum to the pool's).
Whoever constructs a pool stops it: an engine stops a pool it created
when it closes, never one it was handed, and a sharded engine stops
the pool its shards share.  One lock guards the pool's workers, pipes,
queue, kind and counters: two engines may submit from two coordinator
threads at once.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import stat
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as _wait_readable
from typing import (
    Any, Callable, Deque, Dict, List, NamedTuple, Optional, Tuple,
)

from repro.core.columnar import ColumnarTile
from repro.engine.faults import FaultPlan, InjectedCrash, InjectedFault

try:  # pragma: no cover - stdlib, but gate like any optional backend
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None
    resource_tracker = None

POOL_KINDS = ("process", "serial")


class DeadlineExceeded(RuntimeError):
    """A query ran past its deadline and was cancelled mid-flight."""


class CancelToken:
    """A picklable per-query cancellation token.

    The serving layer hands one of these to ``engine.execute`` as the
    ``cancel=`` callable; the executor appends it to every shipped
    payload so workers can observe cancellation at tile boundaries.
    Two sources of truth, checked on every call:

    * an absolute ``time.monotonic()`` deadline — CLOCK_MONOTONIC is
      system-wide on Linux, so the same instant is comparable in forked
      pool workers without any cross-process signalling;
    * an explicit :class:`threading.Event` flag for coordinator-side
      cancellation (tests, client disconnects).  The event does not
      cross the process boundary — pickling keeps only its *current*
      value — which is fine: worker-side checks exist to stop
      deadline-doomed work, and the deadline travels exactly.
    """

    __slots__ = ("deadline", "_flag")

    def __init__(self, deadline: Optional[float] = None) -> None:
        #: Absolute ``time.monotonic()`` instant; ``None`` = no deadline.
        self.deadline = deadline
        self._flag = threading.Event()

    def cancel(self) -> None:
        """Flag the token cancelled (coordinator-side only)."""
        self._flag.set()

    @property
    def cancelled(self) -> bool:
        if self._flag.is_set():
            return True
        return (self.deadline is not None
                and time.monotonic() >= self.deadline)

    def __call__(self) -> None:
        """Checkpoint: raise :class:`DeadlineExceeded` once cancelled."""
        if self.cancelled:
            raise DeadlineExceeded(
                "deadline passed at a scatter checkpoint"
            )

    # Events hold OS state and do not pickle; ship the flag's value.
    def __getstate__(self):
        return (self.deadline, self._flag.is_set())

    def __setstate__(self, state) -> None:
        self.deadline, flagged = state
        self._flag = threading.Event()
        if flagged:
            self._flag.set()


class ShmTileRef(NamedTuple):
    """A pointer to one packed tile inside a shared-memory segment.

    What crosses the process boundary instead of pickled column bytes:
    the worker attaches ``segment`` once (cached per process) and
    reconstructs the tile as memoryview casts over the mapping
    (:meth:`~repro.core.columnar.ColumnarTile.view_over`).
    """

    segment: str
    offset: int
    count: int


class _ShmSegment:
    """Coordinator-side record of one owned segment."""

    __slots__ = ("shm", "nbytes", "pins", "inflight", "idle", "unlinked",
                 "closed")

    def __init__(self, shm, nbytes: int) -> None:
        self.shm = shm
        #: Capacity (a power of two), not the bytes in use.
        self.nbytes = nbytes
        #: Live packed tiles pointing into this segment; each pin is
        #: released by the tile's finalizer.
        self.pins = 0
        #: Shipped-but-ungathered tasks referencing this segment; the
        #: executor decrements in its gather ``finally``.
        self.inflight = 0
        #: On the free list: nothing points into it, the next pack may
        #: overwrite it.
        self.idle = False
        self.unlinked = False
        self.closed = False


#: Idle segments the coordinator keeps for the next pack instead of
#: unlinking them.  One query's shipped tasks return their segments
#: together, and ``cold_scan`` / ``tight_spill`` ship at most eight
#: tasks a query (an overlay: 8 x ~155 KB of tiles, all in the 256 KB
#: class), so eight covers a query's worth: 1 200 shipped overlay tasks
#: create 8 segments instead of 1 200, and ``_ship`` loses the four
#: resource-tracker writes a create / unlink pair costs (18 -> 11 ms
#: per overlay under cProfile; the rest is the executor's own wake-up
#: write).
FREE_SEGMENTS = 8

#: Segments a worker process keeps attached, least recently used out
#: first.  An attach is two descriptors and one mapping; unbounded, a
#: worker held 1 209-1 219 descriptors after 1 200 shipped overlay
#: tasks (RSS 43 -> 136 MB) and died of EMFILE at the 31st overlay
#: under ``ulimit -n 256``.  With recycling a cold workload has 8 names
#: to attach and ``sharded_skew``'s cached tiles pin 7; 32 leaves room
#: for both several times over at 64 descriptors a worker.
ATTACH_CACHE_SEGMENTS = 32


class ShmSegments:
    """Lifecycle manager for the pool's shared-memory tile segments.

    One instance per :class:`WorkerPool` (so sharded engines on a
    shared pool also share segments).  Tiles are packed on first ship
    and *cached by tile identity*: re-shipping a cached artifact tile
    re-sends a :class:`ShmTileRef` instead of re-packing (and instead
    of re-pickling 40 bytes/rect).  A dying tile's finalizer drops its
    cache entry and its pin, so an ``id()`` the allocator hands out
    again can never resolve to another tile's bytes.

    A segment's life is bounded at both ends.  Capacities are rounded
    up to a power of two, and a segment whose last pinned tile is dead
    and whose last shipped task is gathered goes *idle* instead of
    away: up to :data:`FREE_SEGMENTS` of them wait on a free list and
    the next pack takes the smallest one that fits, so steady cold
    traffic creates a handful of segments and then none (workers keep
    the few names attached, :data:`ATTACH_CACHE_SEGMENTS`).  What
    overflows the list is unlinked and closed, oldest first.  A segment
    a task was *abandoned* on — shipped, not finished when its query
    gave up — is unlinked at once and never reused: a worker may still
    be reading it.  :meth:`reset` (pool shutdown, broken-pool demotion)
    unlinks everything immediately, the free list included, deferring
    only what in-flight recovery still needs.

    Any ``OSError`` at segment creation (no ``/dev/shm``, rlimit)
    disables the manager for the pool's lifetime — shipping falls back
    to pickling, which is always correct — and so does the pool's
    demotion to serial.  A disabled manager packs nothing and lets
    every segment go as its last task is gathered.
    """

    def __init__(self) -> None:
        #: The process that owns the segments.  A forked worker inherits
        #: a copy of this manager, and of its lock in whatever state the
        #: fork found it (held by another coordinator thread, for ever),
        #: so only this process ever consults it.
        self.pid = os.getpid()
        # Reentrant: a tile finalizer (``_unpin``) can fire on this
        # thread mid-allocation while the lock is already held.
        self._lock = threading.RLock()
        #: Every owned segment by name, idle ones included.
        self._segments: Dict[str, _ShmSegment] = {}
        #: Names of the idle segments, longest idle first.
        self._free: List[str] = []
        #: id(tile) -> (ref, finalizer); identity-keyed so the cached
        #: artifact tiles the executor re-ships resolve to their
        #: existing segment.  An entry lives exactly as long as its
        #: tile.
        self._tile_refs: Dict[int, Tuple[ShmTileRef, object]] = {}
        self._seq = 0
        self.enabled = shared_memory is not None
        # -- counters (surfaced via WorkerPool.snapshot) ----------------
        self.segments_created = 0
        self.segments_recycled = 0
        self.segments_released = 0
        self.bytes_packed = 0
        self.tile_refs_reused = 0
        self.disabled_errors = 0

    @property
    def open_segments(self) -> int:
        """Named segments this manager owns, idle ones included."""
        with self._lock:
            return sum(
                1 for s in self._segments.values() if not s.unlinked
            )

    @property
    def mapped_segments(self) -> int:
        with self._lock:
            return sum(
                1 for s in self._segments.values() if not s.closed
            )

    # -- packing (coordinator) -------------------------------------------

    def refs_for(self, tiles: List[ColumnarTile]
                 ) -> Optional[List[ShmTileRef]]:
        """Shared-memory refs for ``tiles``, packing the misses.

        Cache hits (a tile already packed, verified by length) reuse
        their segment; all misses are packed together into **one**
        segment, recycled or new — a batch of small tiles costs at most
        one ``shm_open``, not one per tile.  Returns ``None`` when
        shared memory is unavailable (caller ships pickled columns
        instead).
        """
        if not self.enabled:
            return None
        with self._lock:
            refs: List[Optional[ShmTileRef]] = []
            misses: List[Tuple[int, ColumnarTile]] = []
            for i, tile in enumerate(tiles):
                hit = self._tile_refs.get(id(tile))
                if hit is not None:
                    seg = self._segments.get(hit[0].segment)
                    if (hit[0].count == len(tile) and seg is not None
                            and not seg.unlinked):
                        refs.append(hit[0])
                        self.tile_refs_reused += 1
                        continue
                    # Packed again below (the tile grew, or a task was
                    # abandoned on its segment): the old pack lets go
                    # now, not when the tile dies.
                    hit[1].detach()
                    self._unpin(hit[0].segment, id(tile))
                refs.append(None)
                misses.append((i, tile))
            if misses:
                total = sum(t.nbytes for _, t in misses)
                seg_name = self._take_locked(max(1, total))
                if seg_name is None:
                    return None
                seg = self._segments[seg_name]
                offset = 0
                for i, tile in misses:
                    tile.pack_into(seg.shm.buf, offset)
                    ref = ShmTileRef(seg_name, offset, len(tile))
                    offset += tile.nbytes
                    refs[i] = ref
                    seg.pins += 1
                    fin = weakref.finalize(
                        tile, self._unpin, seg_name, id(tile)
                    )
                    fin.atexit = False
                    self._tile_refs[id(tile)] = (ref, fin)
                self.bytes_packed += total
        return refs  # type: ignore[return-value]

    def _take_locked(self, nbytes: int) -> Optional[str]:
        """A segment of at least ``nbytes`` nobody reads: the smallest
        idle one that fits, else a new one of the next power of two."""
        fits = [name for name in self._free
                if self._segments[name].nbytes >= nbytes]
        if fits:
            name = min(fits, key=lambda n: self._segments[n].nbytes)
            self._free.remove(name)
            self._segments[name].idle = False
            self.segments_recycled += 1
            return name
        return self._create_locked(1 << (nbytes - 1).bit_length())

    def _create_locked(self, nbytes: int) -> Optional[str]:
        self._seq += 1
        name = f"repro-{os.getpid()}-{id(self):x}-{self._seq}"
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=nbytes, name=name
            )
        except (OSError, ValueError):
            # No usable shared memory here: disable for the pool's
            # lifetime and let every ship fall back to pickling.
            self.enabled = False
            self.disabled_errors += 1
            return None
        self._segments[shm.name] = _ShmSegment(shm, nbytes)
        self.segments_created += 1
        return shm.name

    # -- task / pin accounting -------------------------------------------

    def add_inflight(self, names) -> None:
        with self._lock:
            for name in names:
                seg = self._segments.get(name)
                if seg is not None:
                    seg.inflight += 1

    def task_done(self, names, abandoned: bool = False) -> None:
        """Gather-side release: one in-flight count per task per segment.

        ``abandoned`` says the task had not finished when its query
        stopped waiting for it: its segments are unlinked now and never
        recycled, since a worker may read them for a while yet.
        """
        with self._lock:
            for name in names:
                seg = self._segments.get(name)
                if seg is not None:
                    seg.inflight = max(0, seg.inflight - 1)
                    if abandoned:
                        self._unlink_locked(seg)
                    self._settle_locked(name, seg)

    def _unpin(self, name: str, tile_id: int) -> None:
        with self._lock:
            self._tile_refs.pop(tile_id, None)
            seg = self._segments.get(name)
            if seg is not None:
                seg.pins = max(0, seg.pins - 1)
                self._settle_locked(name, seg)

    def _settle_locked(self, name: str, seg: _ShmSegment) -> None:
        """A pin or an in-flight count was dropped: if nothing points
        into the segment any more, park it on the free list, or let it
        go when it lost its name or the list is full."""
        if seg.idle or seg.pins > 0 or seg.inflight > 0:
            return
        if seg.unlinked or not self.enabled:
            self._release_locked(name, seg)
            return
        seg.idle = True
        self._free.append(name)
        if len(self._free) > FREE_SEGMENTS:
            oldest = self._free.pop(0)
            self._release_locked(oldest, self._segments[oldest])

    def _release_locked(self, name: str, seg: _ShmSegment) -> None:
        self._unlink_locked(seg)
        self._close_locked(seg)
        if seg.closed:
            del self._segments[name]
            self.segments_released += 1

    def _unlink_locked(self, seg: _ShmSegment) -> None:
        if seg.unlinked:
            return
        _worker_forget(seg.shm.name)
        try:
            seg.shm.unlink()
        except (FileNotFoundError, OSError):
            pass
        seg.unlinked = True

    def _close_locked(self, seg: _ShmSegment) -> None:
        if seg.closed:
            return
        _worker_forget(seg.shm.name)
        try:
            seg.shm.close()
        except BufferError:
            # A live view still points into the mapping (an inline
            # recovery's tile, typically).  The name is already
            # unlinked; leave the mapping to the process teardown.
            return
        seg.closed = True

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Pool-shutdown hygiene: unlink every segment now.

        Runs on normal pool shutdown *and* on broken-pool demotion, so
        a worker that died mid-task can never leak a named segment.
        Segments still referenced by in-flight tasks keep their name
        until the executor's gather calls :meth:`task_done` (their
        inline recovery resolves through this manager's mapping);
        everything else, the free list included, is unlinked and
        closed here.  The tile-ref cache is dropped wholesale — the
        next ship repacks.
        """
        with self._lock:
            for _tid, (_ref, fin) in list(self._tile_refs.items()):
                fin.detach()
            self._tile_refs.clear()
            self._free.clear()
            for name, seg in list(self._segments.items()):
                seg.pins = 0
                seg.idle = False
                if seg.inflight > 0:
                    # Unlink is deferred to task_done so a live worker
                    # (or the inline recovery) can still attach/read.
                    continue
                self._release_locked(name, seg)

    # -- resolution (same process: inline runs and recovery) ------------

    def buffer_of(self, name: str):
        with self._lock:
            seg = self._segments.get(name)
            if seg is None or seg.closed:
                return None
            return seg.shm.buf

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "segments_created": self.segments_created,
                "segments_recycled": self.segments_recycled,
                "segments_released": self.segments_released,
                "segments_open": self.open_segments,
                "bytes_packed": self.bytes_packed,
                "tile_refs_reused": self.tile_refs_reused,
                "disabled_errors": self.disabled_errors,
            }


#: Worker-process attach cache: segment name -> SharedMemory, least
#: recently resolved first, at most :data:`ATTACH_CACHE_SEGMENTS` (the
#: coordinator recycles a few names under steady traffic, so the bound
#: is rarely met).  Reset when the pid changes (a forked worker inherits
#: the parent's dict; the inherited *objects* belong to the parent's
#: registry and are simply dropped).
_WORKER_SEGMENTS: "OrderedDict[str, object]" = OrderedDict()
#: Evicted attaches whose mapping a running task's views still pinned
#: when they were dropped; closed at a later eviction.
_WORKER_UNCLOSED: List[object] = []
#: Worker-process view-tile cache keyed by ref, so repeat tasks on a
#: cached artifact segment reuse one tile object.
_WORKER_VIEWS: "OrderedDict[ShmTileRef, ColumnarTile]" = OrderedDict()
_WORKER_VIEW_CAP = 512
_WORKER_PID = -1
#: The pools' managers, for same-process resolution (coordinator inline
#: runs and recovery).  Weakly referenced; set at manager creation.
#: Multiple pools in one process each register; resolution walks the
#: ones this process created (a forked worker's copies are not its own).
_LOCAL_MANAGERS: "weakref.WeakSet[ShmSegments]" = weakref.WeakSet()


def _worker_forget(name: str) -> Optional[object]:
    """Drop the attach and the views cached for ``name``; returns the
    attach, still open, if there was one."""
    for ref in [r for r in _WORKER_VIEWS if r.segment == name]:
        _WORKER_VIEWS.pop(ref, None)
    return _WORKER_SEGMENTS.pop(name, None)


def _trim_attached() -> None:
    """Evict least recently used attaches down to the bound.

    Called right after an attach, so the segment being resolved is the
    newest entry and never a victim.  A victim the task in hand
    resolved earlier still has live views: its mapping cannot be closed
    yet (``BufferError``), the views stay valid, and the close is
    retried at the next eviction.
    """
    while len(_WORKER_SEGMENTS) > ATTACH_CACHE_SEGMENTS:
        _WORKER_UNCLOSED.append(
            _worker_forget(next(iter(_WORKER_SEGMENTS)))
        )
    still_open = []
    for shm in _WORKER_UNCLOSED:
        try:
            shm.close()
        except BufferError:
            still_open.append(shm)
    _WORKER_UNCLOSED[:] = still_open


def resolve_shm_tile(ref: ShmTileRef) -> ColumnarTile:
    """Materialize a zero-copy tile view for ``ref``.

    Runs on pool workers (attach by name, cached per process) and on
    the coordinator (inline runs and recovery — resolved straight from
    the owning manager's mapping, no second attach).  Raises
    ``FileNotFoundError`` if the segment is gone, which only happens
    after the owning pool was reset or the task's query abandoned it —
    by then nobody waits for the result.
    """
    global _WORKER_PID
    pid = os.getpid()
    if pid != _WORKER_PID:
        # Fresh process (first call, or a forked child that inherited
        # the parent's caches): drop inherited entries, never close
        # them — the objects belong to the parent's lifecycle.
        _WORKER_SEGMENTS.clear()
        _WORKER_UNCLOSED.clear()
        _WORKER_VIEWS.clear()
        _WORKER_PID = pid
    tile = _WORKER_VIEWS.get(ref)
    if tile is not None:
        _WORKER_VIEWS.move_to_end(ref)
        if ref.segment in _WORKER_SEGMENTS:
            _WORKER_SEGMENTS.move_to_end(ref.segment)
        return tile
    buf = None
    for manager in list(_LOCAL_MANAGERS):
        if manager.pid == pid:
            buf = manager.buffer_of(ref.segment)
            if buf is not None:
                break
    if buf is None:
        shm = _WORKER_SEGMENTS.get(ref.segment)
        if shm is not None:
            _WORKER_SEGMENTS.move_to_end(ref.segment)
        else:
            # Attaching would register the segment with the resource
            # tracker, which the forked workers *share* with the
            # coordinator — the coordinator's later unlink would then
            # race every worker's unregister on one tracker set
            # (bpo-39959).  The coordinator owns the lifecycle, so
            # worker attaches are simply never tracked.
            if resource_tracker is not None:
                orig_register = resource_tracker.register
                resource_tracker.register = lambda name, rtype: None
                try:
                    shm = shared_memory.SharedMemory(name=ref.segment)
                finally:
                    resource_tracker.register = orig_register
            else:
                shm = shared_memory.SharedMemory(name=ref.segment)
            _WORKER_SEGMENTS[ref.segment] = shm
            _trim_attached()
        buf = shm.buf
    tile = ColumnarTile.view_over(buf, ref.offset, ref.count)
    _WORKER_VIEWS[ref] = tile
    while len(_WORKER_VIEWS) > _WORKER_VIEW_CAP:
        _WORKER_VIEWS.popitem(last=False)
    return tile


class _InlineFuture:
    """A completed-at-submit future for inline (serial) execution.

    The recovery slots exist because the executor's task shipper tags
    every *submitted* future with its function/payload for broken-pool
    replay — and submit() itself returns an ``_InlineFuture`` on a
    demoted pool and on the injected-break path, so it must accept the
    same tags as a real future.
    """

    __slots__ = ("_value", "_error", "_repro_fn", "_repro_payload",
                 "_repro_shm")

    def __init__(self, fn: Callable[[Any], Any], payload: Any) -> None:
        self._value = None
        self._error: Optional[BaseException] = None
        try:
            self._value = fn(payload)
        except BaseException as exc:  # re-raised at result() like a Future
            self._error = exc

    def result(self) -> Any:
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True


def _faulted_task(wrapped):
    """Run one task under an injected fault (module-level: picklable).

    ``wrapped`` is ``(kind, delay_seconds, coordinator_pid, fn,
    payload)``.  ``crash`` hard-exits the hosting process when it is a
    real pool worker — the coordinator then observes a genuine
    ``BrokenProcessPool`` — and raises :class:`InjectedCrash` (a
    ``BrokenExecutor``) when the task runs on the coordinator itself
    (a serial or demoted pool's inline future), which the executor's
    gather handles through the same broken-pool recovery path.
    """
    kind, delay, coordinator_pid, fn, payload = wrapped
    if kind == "slow":
        if delay > 0:
            time.sleep(delay)
        return fn(payload)
    if kind == "crash":
        if os.getpid() != coordinator_pid:
            os._exit(3)
        raise InjectedCrash("injected worker crash")
    raise InjectedFault("injected task exception")


#: Tasks written to one worker's pipe at a time: the one it runs and one
#: queued behind it, so a worker that finishes starts its next task
#: without waiting for the coordinator to read the result and write
#: again.  A deeper queue only binds tasks to a worker early, where a
#: task behind a long sweep waits for it while another worker may idle;
#: every further task waits on the coordinator (the pool's FIFO) for
#: the first slot a result frees.
TASKS_PER_WORKER = 2

#: A pickled task larger than this is written only to a worker with
#: nothing in its pipe.  A busy worker may be blocked writing a result
#: nobody reads yet: a write that fits the socket buffer (208 KiB on
#: Linux, and at most one task queues in it) completes without the
#: worker's help, a larger one would wait on it for ever.  Only tiles
#: pickled by value (no shared memory) come this large.
PIPE_WRITE_BYTES = 64 * 1024


def _drop_inherited_sockets(keep: int) -> None:
    """Close every socket the fork copied into this worker but ``keep``.

    A pool forked while the coordinator serves copies its listening
    and accepted sockets: a ``Connection: close`` reply would not reach
    end-of-file while the worker lives.  The other workers' pipe ends,
    and the coordinator's end of this worker's own, are sockets too;
    without them the worker sees end-of-file when the coordinator goes.
    Sockets only: the other descriptors (pipes, shared-memory segments)
    are not the coordinator's conversations.  Each socket is replaced
    by ``/dev/null`` rather than closed, so its number stays taken and
    an inherited object that closes it later never closes a reused one.
    """
    fds = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir(fds):
            fd = int(name)
            try:
                if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass  # the listing's own descriptor, closed by now
    finally:
        os.close(null)


def _serve_tasks(conn) -> None:
    """A pool worker's loop: read a task, run it, write its outcome.

    An empty message is the stop signal.  SIGINT is the coordinator's
    to handle: a ^C at ``serve`` drains the pool instead of killing its
    workers mid-task.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _drop_inherited_sockets(conn.fileno())
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if not data:
            return
        try:
            fn, payload = pickle.loads(data)
            reply = (True, fn(payload))
        except BaseException as exc:  # re-raised at result()
            reply = (False, exc)
        try:
            out = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            failure = exc if reply[0] else reply[1]
            out = pickle.dumps((False, RuntimeError(
                f"{type(failure).__name__}: {failure} (did not pickle)"
            )), pickle.HIGHEST_PROTOCOL)
        try:
            conn.send_bytes(out)
        except OSError:
            return


class _Worker:
    """One forked worker and the coordinator's end of its pipe."""

    __slots__ = ("proc", "conn", "written")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: Futures whose tasks are in the pipe or running, oldest
        #: first: the worker answers in this order.
        self.written: Deque[Future] = deque()


def _stop_workers(procs: List[_Worker], terminate: bool) -> None:
    """Stop ``procs`` (terminated where they stand if ``terminate``),
    reap them and close their pipes."""
    for worker in procs:
        try:
            worker.conn.send_bytes(b"")
        except OSError:
            pass
        if terminate:
            worker.proc.terminate()
    for worker in procs:
        worker.proc.join(5)
        if worker.proc.exitcode is None:
            worker.proc.kill()
            worker.proc.join()
        worker.proc.close()
        worker.conn.close()


class _PipeFuture(Future):
    """A :class:`concurrent.futures.Future` whose waiter does the reading.

    ``result`` / ``exception`` drive the pool until this future is
    done; ``done``, ``cancel`` and ``add_done_callback`` are the stock
    ones.  (``concurrent.futures.wait`` does not drive it: a future of
    this pool completes only while some thread waits in ``result`` or
    ``exception``.)
    """

    def __init__(self, pool: "WorkerPool") -> None:
        super().__init__()
        self._pool = pool

    def result(self, timeout: Optional[float] = None) -> Any:
        self._pool._wait_for(self.done, timeout)
        return super().result(timeout=0)

    def exception(self, timeout: Optional[float] = None):
        self._pool._wait_for(self.done, timeout)
        return super().exception(timeout=0)

    def cancel(self) -> bool:
        # A thread parked on the pool may be waiting for this one.
        if not super().cancel():
            return False
        with self._pool._cond:
            self._pool._cond.notify_all()
        return True


def _fork_context():
    # Fork keeps startup off the hot path on POSIX; workers inherit the
    # imported modules instead of re-importing.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class WorkerPool:
    """A long-lived process pool shareable by several engines.

    Forked workers, one duplex pipe each, and no coordinator thread.
    ``submit`` pickles the task and writes it to the least loaded
    worker holding fewer than :data:`TASKS_PER_WORKER` (a task over
    :data:`PIPE_WRITE_BYTES` waits for an idle one); any other task
    waits in one FIFO.  A thread in ``result()`` takes the reader role
    if it is free, waits on every worker's pipe, completes whichever
    futures arrive and writes queued tasks to the slots they free; the
    other waiters park on the pool's condition, notified at every
    completion and when the reader gives the role up.

    One lock, that condition's, guards the workers, pipes, FIFO and
    reader role, and with them the kind, the counters and whether the
    pool runs.  End-of-file or a write error on a pipe (a worker died)
    demotes the pool to ``serial`` where it is seen, failing every
    unresolved future with ``BrokenProcessPool``.
    """

    def __init__(self, workers: int = 1, kind: str = "process",
                 faults: Optional[FaultPlan] = None) -> None:
        if kind not in POOL_KINDS:
            raise ValueError(
                f"pool kind must be one of {POOL_KINDS}, got {kind!r}"
            )
        #: Optional chaos schedule consulted at ``pool.submit`` /
        #: ``pool.task`` (see :mod:`repro.engine.faults`); None in
        #: production.
        self.faults = faults
        self.workers = max(1, workers)
        #: The requested kind; single-worker pools execute inline
        #: regardless (a pool of one only adds shipping overhead).
        self.kind = kind if self.workers > 1 else "serial"
        # Reentrant: futures are failed under it, and a done-callback
        # may submit on the same thread.
        self._cond = threading.Condition(threading.RLock())
        #: The running workers; empty while the pool is stopped.
        self._procs: List[_Worker] = []
        #: Tasks no worker has room for yet, oldest first.
        self._queued: Deque[Tuple[Future, bytes]] = deque()
        self._reading = False
        # -- stats (surfaced via snapshot / engine metrics) -------------
        self.tasks_dispatched = 0
        self.tasks_inline = 0
        self.tiles_dispatched = 0
        self.tiles_inline = 0
        self.pools_created = 0
        self.fallbacks = 0
        #: process->serial kind demotions (never more than one).
        self.demotions = 0
        #: Shipped tasks reclaimed by deadline cancellation: futures
        #: cancelled before a worker picked them up plus in-flight
        #: tasks that observed the token at a tile boundary.
        self.pool_tasks_cancelled = 0
        #: Every client ever made, weakly held, so the snapshot can
        #: report per-client dispatch splits without the pool keeping
        #: dead engines alive.
        self._clients: "weakref.WeakSet[PoolClient]" = weakref.WeakSet()
        self._client_seq = 0
        #: Shared-memory segment manager for zero-copy tile shipping.
        #: Shared by every client on this pool; registered for
        #: same-process ref resolution (inline runs and recovery).
        self.shm = ShmSegments()
        _LOCAL_MANAGERS.add(self.shm)
        # A pool nobody shut down is stopped when collected or at exit.
        # The finalizer holds the worker list and the segment manager,
        # never the pool.
        weakref.finalize(self, _abandon_pool, self._procs, self.shm)

    # -- lifecycle -------------------------------------------------------

    def client(self) -> "PoolClient":
        """A counting handle for one engine; see :class:`PoolClient`."""
        return PoolClient(self)

    def prestart(self) -> None:
        """Boot the workers now, off the serving path (idempotent).

        A process pool forks all its workers at its first shipped task
        otherwise: the whole startup cost (fork x workers, pipe setup)
        would land on the first partitioned query.  Serving engines
        call this from ``prepare()`` so measured traffic starts against
        a running pool.  A pool that cannot start demotes itself here,
        as it would at a first submit.
        """
        with self._cond:
            self._start_locked()

    def _start_locked(self) -> None:
        if self._procs or self.kind == "serial":
            return
        try:
            ctx = _fork_context()
            for _ in range(self.workers):
                ours, theirs = ctx.Pipe(duplex=True)
                proc = ctx.Process(target=_serve_tasks, args=(theirs,),
                                   daemon=True)
                try:
                    proc.start()
                except BaseException:
                    ours.close()
                    raise
                finally:
                    theirs.close()
                self._procs.append(_Worker(proc, ours))
        except BaseException as exc:
            # No working process support here (restricted sandbox).
            self.fallbacks += 1
            self._demote_locked(f"the pool did not start: {exc!r}")
            if not isinstance(exc, (OSError, ValueError)):
                raise
            return
        self.pools_created += 1

    def shutdown(self) -> None:
        """Stop the pool (idempotent); the next submit starts it again.

        Called by the pool's owner: the engine or sharded engine that
        created it.  Every task written or queued, those other threads
        submit meanwhile included, finishes first, so no future is
        failed and none is left pending; then the workers exit, every
        pipe is closed and the shared-memory segments are unlinked.
        """
        while True:
            self._wait_for(self._drained)
            with self._cond:
                if self._drained():
                    self._stop_locked()
                    return

    def _drained(self) -> bool:
        return not self._queued and not any(w.written for w in self._procs)

    def _stop_locked(self, broken: Optional[str] = None) -> None:
        """Stop the workers and reset the segments; a ``broken`` pool
        first fails every unresolved future and its workers are
        terminated where they stand."""
        if broken is not None:
            stranded = [fut for w in self._procs for fut in w.written]
            stranded += [fut for fut, _data in self._queued]
            self._queued.clear()
            for fut in stranded:
                try:
                    fut.set_exception(BrokenProcessPool(broken))
                except InvalidStateError:
                    pass  # cancelled while queued
        _stop_workers(self._procs, terminate=broken is not None)
        self._procs.clear()
        # Shared-memory hygiene rides every stop, so a dead worker can
        # never leave a named segment behind.
        self.shm.reset()
        self._cond.notify_all()

    def _demote_locked(self, cause: str) -> None:
        """Turn the pool serial for good (idempotent).

        The one place a kind changes.  The workers stop, every
        unresolved future fails with ``BrokenProcessPool`` (its caller
        re-runs it through :meth:`recover`) and the shared memory is
        given up (a serial pool ships nothing); tasks submitted from
        then on run inline, and no pool is started again.
        """
        if self.kind == "serial":
            return
        self.kind = "serial"
        self.demotions += 1
        self.shm.enabled = False
        self._stop_locked(broken=cause)

    # -- submission ------------------------------------------------------

    def submit(self, fn: Callable[[Any], Any], payload: Any,
               units: int = 1):
        """Schedule ``fn(payload)``; returns a future-like object.

        Serial pools compute inline at submit time.  ``fn`` must be a
        module-level callable and ``payload`` picklable when the pool
        is process-based.  ``units`` is how many tiles the task
        carries (1 for solo tasks, the batch length for batch tasks).
        """
        if self.faults is not None:
            name = getattr(fn, "__name__", str(fn))
            rule = self.faults.fire("pool.submit", fn=name)
            if rule is not None and rule.kind == "break":
                # Behave exactly like a pool found broken at submit.
                with self._cond:
                    self.fallbacks += 1
                    self._demote_locked("an injected break at submit")
                return self.run_inline(fn, payload, units)
            rule = self.faults.fire("pool.task", fn=name)
            if rule is not None:
                # The wrapper travels to the worker; the executor's
                # recovery tags keep the *caller's* fn/payload, so an
                # inline replay of a crashed task is fault-free.
                payload = (rule.kind, rule.delay_seconds, os.getpid(),
                           fn, payload)
                fn = _faulted_task
        if self.kind == "serial":
            return self.run_inline(fn, payload, units)
        fut = _PipeFuture(self)
        try:
            data = pickle.dumps((fn, payload), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            # Failed in the future, not raised: the caller's per-task
            # bookkeeping (shm pins) is released at its gather.
            fut.set_exception(exc)
            data = None
        with self._cond:
            self._start_locked()
            if self.kind != "serial":
                self.tasks_dispatched += 1
                self.tiles_dispatched += units
                if data is not None:
                    self._queued.append((fut, data))
                    self._feed_locked()
                return fut
        # The pool did not start, or was demoted since the check above.
        return self.run_inline(fn, payload, units)

    def _feed_locked(self) -> None:
        """Write queued tasks to free slots, oldest first."""
        while self._queued:
            fut, data = self._queued[0]
            if fut.cancelled():
                self._queued.popleft()
                continue
            worker = self._slot_for(len(data))
            if worker is None:
                return
            self._queued.popleft()
            if not fut.set_running_or_notify_cancel():
                continue
            worker.written.append(fut)
            try:
                worker.conn.send_bytes(data)
            except OSError as exc:
                self._demote_locked(f"a worker's pipe broke: {exc!r}")
                return

    def _slot_for(self, nbytes: int) -> Optional[_Worker]:
        best = None
        for worker in self._procs:
            held = len(worker.written)
            if held >= TASKS_PER_WORKER or (held and
                                            nbytes > PIPE_WRITE_BYTES):
                continue
            if best is None or held < len(best.written):
                best = worker
        return best

    def run_inline(self, fn: Callable[[Any], Any], payload: Any,
                   units: int = 1):
        """Execute on the coordinator, counted separately from dispatch."""
        with self._cond:
            self.tasks_inline += 1
            self.tiles_inline += units
        return _InlineFuture(fn, payload)

    def recover(self, fn: Callable[[Any], Any], payload: Any) -> Any:
        """Re-run a task whose pool died, inline; counts a fallback.

        A worker that dies (end-of-file on its pipe) demotes the pool
        and fails every unresolved future with ``BrokenProcessPool``;
        each caller lands here and recomputes its lost task inline —
        correctness over parallelism.  On a shared pool the demotion
        is deliberately global: every client's next query runs on the
        coordinator rather than re-discovering the same broken process
        support one shard at a time.  A pool not yet demoted is demoted
        here.
        """
        with self._cond:
            self.fallbacks += 1
            self._demote_locked("a task was lost")
        return fn(payload)

    def note_cancelled(self, n: int = 1) -> None:
        """Count ``n`` shipped tasks reclaimed by cancellation."""
        if n <= 0:
            return
        with self._cond:
            self.pool_tasks_cancelled += n

    # -- reading ----------------------------------------------------------

    def _wait_for(self, ready: Callable[[], bool],
                  timeout: Optional[float] = None) -> None:
        """Return once ``ready()`` holds or ``timeout`` passes, reading
        the pipes whenever no other thread is."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not ready():
            with self._cond:
                if self._reading:
                    if ready():
                        return
                    if deadline is None:
                        self._cond.wait()
                    elif not self._cond.wait(deadline - time.monotonic()):
                        return
                    continue
                self._reading = True
            try:
                self._read(ready, deadline)
            finally:
                with self._cond:
                    self._reading = False
                    self._cond.notify_all()
            if deadline is not None and time.monotonic() >= deadline:
                return

    def _read(self, ready: Callable[[], bool],
              deadline: Optional[float]) -> None:
        """The reader role: complete arriving futures until ``ready()``."""
        while not ready():
            with self._cond:
                by_conn = {w.conn: w for w in self._procs}
            if not by_conn:
                return  # stopped or demoted: every future is settled
            timeout = (None if deadline is None
                       else max(0.0, deadline - time.monotonic()))
            try:
                arrived = _wait_readable(list(by_conn), timeout)
            except OSError:
                continue  # a pipe closed under the wait: look again
            if not arrived:
                return
            done: List[Tuple[Future, bytes]] = []
            for conn in arrived:
                worker = by_conn[conn]
                try:
                    data = conn.recv_bytes()
                except (EOFError, OSError) as exc:
                    data = exc
                with self._cond:
                    if worker not in self._procs:
                        break  # stopped meanwhile: its futures settled
                    if isinstance(data, Exception) or not worker.written:
                        # Dead, or an answer to no task: dead either way.
                        self._demote_locked(
                            f"worker {worker.proc.pid} failed: {data!r:.80}")
                        break
                    fut = worker.written.popleft()
                    self._feed_locked()
                done.append((fut, data))
            for fut, data in done:
                try:
                    ok, value = pickle.loads(data)
                except Exception as exc:
                    ok, value = False, exc
                if ok:
                    fut.set_result(value)
                else:
                    fut.set_exception(value)
            with self._cond:
                self._cond.notify_all()

    # -- observability ---------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def snapshot(self) -> Dict[str, object]:
        with self._cond:
            clients = sorted(self._clients, key=lambda c: c.client_id)
            return {
                "kind": self.kind,
                "workers": self.workers,
                "started": self.started,
                "tasks_dispatched": self.tasks_dispatched,
                "tasks_inline": self.tasks_inline,
                "tiles_dispatched": self.tiles_dispatched,
                "tiles_inline": self.tiles_inline,
                "pools_created": self.pools_created,
                "fallbacks": self.fallbacks,
                "demotions": self.demotions,
                "pool_tasks_cancelled": self.pool_tasks_cancelled,
                "faults": (
                    self.faults.snapshot()
                    if self.faults is not None else None
                ),
                "shm": self.shm.snapshot(),
                "per_client": [
                    {
                        "client_id": c.client_id,
                        "tasks_dispatched": c.tasks_dispatched,
                        "tasks_inline": c.tasks_inline,
                        "tiles_dispatched": c.tiles_dispatched,
                        "tiles_inline": c.tiles_inline,
                    }
                    for c in clients
                ],
            }


class PoolClient:
    """One engine's counting handle on a (possibly shared) pool.

    The client forwards every submission to the underlying
    :class:`WorkerPool` and mirrors its accounting locally, so a
    sharded deployment can attribute dispatch traffic per shard while
    the pool keeps the totals (``sum(client counters) == pool
    counters`` whenever every submitter goes through a client).
    Gauges — kind, worker count, creation/fallback counts — are reads
    of the shared pool.  A client owns nothing: whoever constructed
    the pool stops it.
    """

    __slots__ = ("pool", "client_id", "tasks_dispatched", "tasks_inline",
                 "tiles_dispatched", "tiles_inline", "__weakref__")

    def __init__(self, pool: WorkerPool) -> None:
        self.pool = pool
        self.tasks_dispatched = 0
        self.tasks_inline = 0
        self.tiles_dispatched = 0
        self.tiles_inline = 0
        with pool._cond:
            self.client_id = pool._client_seq
            pool._client_seq += 1
            pool._clients.add(self)

    # -- shared gauges ---------------------------------------------------

    @property
    def kind(self) -> str:
        return self.pool.kind

    @property
    def workers(self) -> int:
        return self.pool.workers

    @property
    def started(self) -> bool:
        return self.pool.started

    @property
    def shm(self) -> ShmSegments:
        return self.pool.shm

    def prestart(self) -> None:
        self.pool.prestart()

    @property
    def pools_created(self) -> int:
        return self.pool.pools_created

    @property
    def fallbacks(self) -> int:
        return self.pool.fallbacks

    # -- submission ------------------------------------------------------

    def submit(self, fn: Callable[[Any], Any], payload: Any,
               units: int = 1):
        fut = self.pool.submit(fn, payload, units)
        # Mirror the pool's own inline-vs-dispatch verdict (an inline
        # future means the pool had no workers for this task).
        if isinstance(fut, _InlineFuture):
            self.tasks_inline += 1
            self.tiles_inline += units
        else:
            self.tasks_dispatched += 1
            self.tiles_dispatched += units
        return fut

    def run_inline(self, fn: Callable[[Any], Any], payload: Any,
                   units: int = 1):
        self.tasks_inline += 1
        self.tiles_inline += units
        return self.pool.run_inline(fn, payload, units)

    def recover(self, fn: Callable[[Any], Any], payload: Any) -> Any:
        return self.pool.recover(fn, payload)

    def note_cancelled(self, n: int = 1) -> None:
        self.pool.note_cancelled(n)

    # -- observability ---------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Pool gauges with this client's dispatch counters."""
        snap = self.pool.snapshot()
        snap.update({
            "client_id": self.client_id,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_inline": self.tasks_inline,
            "tiles_dispatched": self.tiles_dispatched,
            "tiles_inline": self.tiles_inline,
        })
        return snap


def _abandon_pool(procs: List[_Worker], shm: ShmSegments) -> None:
    # A pool nobody shut down (collected, or alive at interpreter
    # exit): stop the workers and unlink the segments, the idle ones
    # on the free list included.  Module-level, and handed the pool's
    # worker list and segment manager rather than the pool, so the
    # finalizer holds no reference to the pool.
    _stop_workers(procs, terminate=True)
    procs.clear()
    shm.reset()
