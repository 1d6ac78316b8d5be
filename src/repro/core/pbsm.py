"""Partition-Based Spatial Merge join (Patel & DeWitt [30], Section 3.2).

Two phases:

1. **Partitioning.**  The universe is cut into ``tiles_per_side^2``
   tiles; tiles are assigned to ``p`` partitions round-robin in
   row-major order (the paper's hash function).  Each input is scanned
   once and every rectangle is appended to the partition stream of
   *each* partition whose tiles it overlaps.  Because the 2p partition
   streams grow concurrently, their blocks interleave on disk — the
   "one non-sequential write pass" of the paper.

2. **Joining.**  Partition by partition, both sides are read into
   memory and joined with Forward-Sweep (the structure Patel & DeWitt
   used).  A pair replicated into several partitions is reported only
   in the partition owning the tile of its reference point.

The paper's implementation note — with 32x32 tiles several partitions
exceeded memory and page-faulted; 128x128 tiles fixed it — is
reproduced by the tile ablation bench: partition sizes are tracked and
reported in ``detail``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.columnar import ColumnarTile
from repro.core.join_result import JoinResult
from repro.core.sweep import forward_sweep_pairs, forward_sweep_pairs_batched
from repro.geom.rect import RECT_BYTES, Rect, cells_per_unit
from repro.storage.disk import Disk
from repro.storage.stream import Stream


@dataclass(frozen=True)
class PBSMConfig:
    """PBSM knobs; defaults are the paper's final choices."""

    tiles_per_side: int = 128
    partitions: Optional[int] = None  # None = size from the memory budget
    memory_bytes: Optional[int] = None  # None = scale config budget


def pbsm_join(
    stream_a: Stream,
    stream_b: Stream,
    disk: Disk,
    universe: Optional[Rect] = None,
    config: PBSMConfig = PBSMConfig(),
    collect_pairs: bool = False,
) -> JoinResult:
    """Join two (unsorted, closed) rectangle streams with PBSM."""
    env = disk.env
    if universe is None:
        from repro.core.sssj import silent_universe

        universe = silent_universe(stream_a, stream_b)
    memory_bytes = config.memory_bytes or env.scale.memory_bytes
    total_bytes = stream_a.data_bytes + stream_b.data_bytes
    p = config.partitions or max(1, math.ceil(total_bytes / memory_bytes))
    tiles = config.tiles_per_side
    if tiles * tiles < p:
        raise ValueError(
            f"{tiles}x{tiles} tiles cannot feed {p} partitions"
        )

    grid = TileGrid(universe, tiles, p)

    # -- Phase 1: partitioning (one read pass per input, interleaved
    # writes to the 2p partition streams).
    parts_a = [Stream(disk, name=f"pbsm.a{i}") for i in range(p)]
    parts_b = [Stream(disk, name=f"pbsm.b{i}") for i in range(p)]
    # One op per rectangle scanned, one per copy placed.
    ops_a = distribute(stream_a, parts_a, grid)
    env.charge("partition", ops_a)
    ops_b = distribute(stream_b, parts_b, grid)
    env.charge("partition", ops_b)
    for s in parts_a:
        s.close()
    for s in parts_b:
        s.close()

    # -- Phase 2: per-partition sweep with reference-point dedup.
    pairs: Optional[List[Tuple[int, int]]] = [] if collect_pairs else None
    n_pairs = 0
    max_mem = 0
    max_partition_bytes = 0
    overfull = 0
    for i in range(p):
        side_a = list(parts_a[i].scan())
        side_b = list(parts_b[i].scan())
        part_bytes = (len(side_a) + len(side_b)) * RECT_BYTES
        max_partition_bytes = max(max_partition_bytes, part_bytes)
        if part_bytes > memory_bytes:
            overfull += 1
        if not side_a or not side_b:
            continue

        def sink(ra: Rect, rb: Rect, _i=i) -> None:
            nonlocal n_pairs
            if grid.partition_of_point(*ref_point(ra, rb)) == _i:
                n_pairs += 1
                if pairs is not None:
                    pairs.append((ra.rid, rb.rid))

        stats = forward_sweep_pairs(side_a, side_b, env, on_pair=sink)
        max_mem = max(max_mem, part_bytes + stats.max_active_bytes)
    for s in parts_a + parts_b:
        s.free()

    return JoinResult(
        algorithm="PBSM",
        n_pairs=n_pairs,
        pairs=pairs,
        max_memory_bytes=max_mem,
        detail={
            "partitions": p,
            "tiles_per_side": tiles,
            "replicated_a": ops_a - len(stream_a),
            "replicated_b": ops_b - len(stream_b),
            "max_partition_bytes": max_partition_bytes,
            "overfull_partitions": overfull,
            "memory_bytes": memory_bytes,
        },
    )


class TileAllowance:
    """A shared in-memory byte allowance for a set of tile partitions.

    PBSM-style tile distribution is skewed — a per-partition split of
    the memory grant would spill hot partitions while cold partitions
    waste their share.  All of one query's :class:`SpillablePartition`
    objects therefore draw from a single allowance, first come first
    served; spilling starts only once the partitions *collectively*
    exhaust it.

    The initial allowance is an estimate (boundary replication makes
    the true tile footprint unknowable before distribution), so when a
    grant is attached the allowance grows on demand — in chunks, via
    ``grant.try_extend`` — as long as the underlying budget has free
    bytes.  Spilling therefore means the *budget* is exhausted, not
    that the up-front estimate was short.  Single-threaded by design:
    distribution and spill re-reads happen on the thread that owns the
    I/O accounting.
    """

    #: Extension step: one chunk of rectangles per budget round-trip.
    EXTEND_BYTES = 256 * RECT_BYTES

    def __init__(self, total_bytes: int, grant=None) -> None:
        self.total_bytes = total_bytes
        self.remaining = total_bytes
        self._grant = grant

    def try_take(self, nbytes: int) -> bool:
        if nbytes <= self.remaining:
            self.remaining -= nbytes
            return True
        if self._grant is not None:
            step = max(nbytes, self.EXTEND_BYTES)
            if self._grant.try_extend(step):
                self.total_bytes += step
                self.remaining += step - nbytes
                return True
        return False

    def take_many(self, count: int, nbytes: int = RECT_BYTES) -> int:
        """How many of ``count`` consecutive ``try_take(nbytes)`` calls
        succeed before the first refusal, drawn in bulk.

        Same arithmetic as the per-call path — the remainder is used
        up, then the grant extends one ``EXTEND_BYTES`` step at a time
        and only while another take is wanted — so the grant's size
        and high-water mark land exactly where ``count`` single takes
        would have left them.
        """
        taken = 0
        step = max(nbytes, self.EXTEND_BYTES)
        while True:
            fit = min(count - taken, self.remaining // nbytes)
            self.remaining -= fit * nbytes
            taken += fit
            if taken == count or self._grant is None:
                return taken
            if not self._grant.try_extend(step):
                return taken
            self.total_bytes += step
            self.remaining += step


class SpillablePartition:
    """One partition's tiles: in memory up to an allowance, then on disk.

    The engine's partitioned executor materializes PBSM-style tile
    partitions in memory (classic ``pbsm_join`` writes them straight to
    partition streams).  Under a :class:`ResourceBudget` grant the
    partitions share a :class:`TileAllowance`; rectangles beyond it
    overflow to a ``Disk``-backed :class:`Stream` and are re-read
    during the join phase.  Stream writes and re-reads go through the
    simulated disk, so spilling is priced by the same ledger as every
    other I/O; the CPU side of moving a record to/from the spill stream
    is charged by the caller under ``"spill"`` using
    :attr:`spilled_rects`.

    ``allowance=None`` means unbudgeted (never spills), which keeps the
    pre-budget executor behaviour byte-identical.

    The resident part is either the ``in_memory`` list that
    :meth:`append` fills one rectangle at a time, or — on the columnar
    distribute path, which draws the allowance in bulk — one ``packed``
    :class:`ColumnarTile` set by the caller.  The overflow likewise
    arrives one rectangle at a time (:meth:`spill`) or as rows of the
    relation's column image (:meth:`spill_rows`); the second keeps the
    spill stream columnar, and :meth:`materialize_columnar` then
    assembles the tile from column blocks without building a ``Rect``.
    One partition takes one form of overflow, as its stream does.
    """

    def __init__(self, disk: Disk, name: str,
                 allowance: Optional[TileAllowance] = None) -> None:
        self.disk = disk
        self.name = name
        self.allowance = allowance
        self.in_memory: List[Rect] = []
        self.packed: Optional[ColumnarTile] = None
        self._spill: Optional[Stream] = None
        self.spilled_rects = 0

    def append(self, r: Rect) -> None:
        if self.allowance is None or self.allowance.try_take(RECT_BYTES):
            self.in_memory.append(r)
            return
        self.spill(r)

    def spill(self, r: Rect) -> None:
        """Write ``r`` to the disk-backed overflow stream."""
        self._spill_stream().append(r)
        self.spilled_rects += 1

    def spill_rows(self, image, rows) -> None:
        """Row-wise :meth:`spill`: ``rows`` of the column ``image``
        (an index array), in order, written as column blocks."""
        self._spill_stream().append_rows(image, rows)
        self.spilled_rects += len(rows)

    def spill_fills(self, count: int) -> range:
        """Which of the next ``count`` spilled records fill a block of
        the overflow stream (and so flush it): their 1-based ordinals."""
        stream = self._spill_stream()
        return range(stream.room, count + 1, stream.block_capacity)

    def _spill_stream(self) -> Stream:
        if self._spill is None:
            self._spill = Stream(self.disk, name=f"{self.name}.spill")
        return self._spill

    def _resident(self) -> int:
        return len(self.in_memory if self.packed is None else self.packed)

    def __len__(self) -> int:
        return self._resident() + self.spilled_rects

    @property
    def spilled(self) -> bool:
        return self.spilled_rects > 0

    @property
    def memory_bytes(self) -> int:
        return self._resident() * RECT_BYTES

    @property
    def spilled_bytes(self) -> int:
        return self.spilled_rects * RECT_BYTES

    def materialize(self) -> List[Rect]:
        """All rectangles in append order, re-reading any spill stream.

        The spill re-read charges block reads on the shared disk — call
        this from the thread that owns the I/O accounting.
        """
        resident = (
            self.in_memory if self.packed is None else self.packed.decode()
        )
        if self._spill is None:
            return resident
        self._spill.close()
        return resident + list(self._spill.scan())

    def materialize_columnar(self) -> "ColumnarTile":
        """The partition as one flat columnar tile, in append order.

        Same contents and same spill re-read accounting as
        :meth:`materialize` (the scan hits the same simulated disk), but
        packed as :class:`~repro.core.columnar.ColumnarTile` — the wire
        format the engine's process workers and partition-artifact
        cache consume, so spilled and resident tiles ship identically.
        Overflow that was spilled as rows comes back as column blocks,
        one memcpy per column and block, the block reads charged in the
        order a scan charges them.
        """
        packed = self.packed
        if packed is not None and self._spill is None:
            return packed
        tile = ColumnarTile()
        if packed is not None:
            # A copy, so a second call does not see the spill twice.
            tile.extend_columns(packed.xlo, packed.xhi, packed.ylo,
                                packed.yhi, packed.rid)
        elif self.in_memory:
            tile.extend(self.in_memory)
        if self._spill is not None:
            self._spill.close()
            if self._spill.row_fed:
                for block in self._spill.scan_columns():
                    tile.extend_columns(block.xlo, block.xhi, block.ylo,
                                        block.yhi, block.rid)
            else:
                tile.extend(self._spill.scan())
        return tile

    def free(self) -> None:
        """Drop the spill stream's disk payloads (temp-file deletion)."""
        if self._spill is not None:
            self._spill.close()
            self._spill.free()
            self._spill = None
        self.in_memory = []
        self.packed = None


# -- internals ---------------------------------------------------------------


class TileGrid:
    """Tile geometry plus the row-major round-robin partition map.

    Public contract: the engine's partitioned executor
    (:mod:`repro.engine.executor`) reuses this grid and
    :func:`ref_point` so its duplicate elimination stays bit-identical
    to PBSM's.
    """

    def __init__(self, universe: Rect, tiles_per_side: int,
                 partitions: int) -> None:
        self.universe = universe
        self.t = tiles_per_side
        self.p = partitions
        self.inv_x = cells_per_unit(self.t, universe.xhi - universe.xlo)
        self.inv_y = cells_per_unit(self.t, universe.yhi - universe.ylo)

    def _clamp(self, v: int) -> int:
        if v < 0:
            return 0
        if v >= self.t:
            return self.t - 1
        return v

    def tile_range(self, r: Rect) -> Tuple[int, int, int, int]:
        """Inclusive (col_lo, col_hi, row_lo, row_hi) of tiles r overlaps."""
        c0 = self._clamp(int((r.xlo - self.universe.xlo) * self.inv_x))
        c1 = self._clamp(int((r.xhi - self.universe.xlo) * self.inv_x))
        r0 = self._clamp(int((r.ylo - self.universe.ylo) * self.inv_y))
        r1 = self._clamp(int((r.yhi - self.universe.ylo) * self.inv_y))
        return c0, c1, r0, r1

    def partitions_of(self, r: Rect) -> List[int]:
        """The distinct partitions ``r``'s tiles map to, ascending.

        Ascending, not set order: when a shared allowance runs out in
        the middle of a boundary rectangle, the order of its copies
        decides which of them spill, and a set's iteration order is
        CPython's hash-table layout (ascending only while ``p <= 8``).
        """
        c0, c1, r0, r1 = self.tile_range(r)
        if c0 == c1 and r0 == r1:
            return [(r0 * self.t + c0) % self.p]
        out = set()
        for row in range(r0, r1 + 1):
            base = row * self.t
            for col in range(c0, c1 + 1):
                out.add((base + col) % self.p)
        return sorted(out)

    def partition_of_point(self, x: float, y: float) -> int:
        col = self._clamp(int((x - self.universe.xlo) * self.inv_x))
        row = self._clamp(int((y - self.universe.ylo) * self.inv_y))
        return (row * self.t + col) % self.p


def ref_point(ra: Rect, rb: Rect) -> Tuple[float, float]:
    return (
        ra.xlo if ra.xlo >= rb.xlo else rb.xlo,
        ra.ylo if ra.ylo >= rb.ylo else rb.ylo,
    )


def distribute(source: Stream, parts: List, grid: TileGrid,
               window: Optional[Rect] = None) -> int:
    """Scan ``source`` and append each rectangle to every partition its
    tiles map to; returns the ops, uncharged.

    ``parts`` are ``pbsm_join``'s partition streams or the engine's
    :class:`SpillablePartition` tiles.  A rectangle costs one op plus
    one per copy; with a ``window``, one outside it is skipped for one
    op.  This is the reference the numpy kernel
    (:func:`repro.core.kernels.np_distribute.distribute`) is tested
    against.
    """
    ops = 0
    for r in source.scan():
        if window is not None and not r.intersects(window):
            ops += 1
            continue
        targets = grid.partitions_of(r)
        ops += 1 + len(targets)
        for t in targets:
            parts[t].append(r)
    return ops


class _OpCounter:
    """Minimal env stand-in for a tile's own sweep: counts CPU ops."""

    def __init__(self) -> None:
        self.cpu_ops = 0

    def charge(self, category: str, ops: int) -> None:
        if ops > 0:
            self.cpu_ops += ops


def _in_strip(x: float, strip: Tuple[float, ...]) -> bool:
    """:func:`~repro.core.kernels.np_sweep.strip_mask` for one x."""
    lo, hi = strip
    return lo <= x and (x < hi or hi == math.inf)


def sweep_tile(payload: tuple) -> tuple:
    """One partition tile swept, owned and deduplicated: the reference
    for :func:`repro.core.kernels.np_sweep.sweep_tiles`.

    ``payload`` is the engine's tile task,
    ``(part_id, grid_spec, side_a, side_b, self_join, collect, ...)``;
    a side is a :class:`~repro.core.columnar.ColumnarTile` or a
    ``Rect`` list, and ``side_b is None`` marks a self-join, whose
    single side sweeps against itself.  The forward sweep collects the
    tile's pairs in a list (which sorts), then reference-point
    ownership and self-join dedup run in one loop over that list.  For
    self-joins the sweep emits every pair in both orientations plus
    each rectangle against itself, and the filter keeps exactly the
    ``rid_a < rid_b`` representative.  The grid spec is six numbers,
    then optionally a shard's strip ``(lo, hi)``: 6 or 8 entries.  A
    pair its partition owns is then kept only if its reference x lies
    in ``[lo, hi)``.  A windowed query's tiles hold only rectangles
    that meet the window, and its strip has the window's low x folded
    in (:func:`~repro.core.kernels.np_sweep.fold_floor`), so no window
    is tested here.

    Returns ``(owned pair count, owned pairs as a list or None, cpu
    ops, duplicates suppressed by the reference-point test and
    self-join dedup, pairs the strip test left to another shard)``.
    """
    part_id, grid_spec, side_a, side_b, self_join, collect = payload[:6]
    if isinstance(side_a, ColumnarTile):
        side_a = side_a.decode()
    if side_b is None:
        side_b = side_a
    elif isinstance(side_b, ColumnarTile):
        side_b = side_b.decode()

    local = _OpCounter()
    batch, _stats = forward_sweep_pairs_batched(side_a, side_b, local)

    grid = TileGrid(
        Rect(grid_spec[0], grid_spec[1], grid_spec[2], grid_spec[3], 0),
        grid_spec[4], grid_spec[5],
    )
    part_of = grid.partition_of_point
    strip = grid_spec[6:]
    owned: List[Tuple[int, int]] = []
    append = owned.append
    dups = unowned = 0
    for ra, rb in batch:
        if self_join and not ra.rid < rb.rid:
            dups += 1
            continue
        x = ra.xlo if ra.xlo >= rb.xlo else rb.xlo
        y = ra.ylo if ra.ylo >= rb.ylo else rb.ylo
        if part_of(x, y) != part_id:
            dups += 1
        elif strip and not _in_strip(x, strip):
            unowned += 1
        else:
            append((ra.rid, rb.rid))
    return (len(owned), owned if collect else None, local.cpu_ops, dups,
            unowned)
