"""Columnar tiles and pair sets: the flat formats that cross layers.

A partitioned parallel join ships tiles of rectangles to pool workers.
Pickling a Python list of :class:`~repro.geom.rect.Rect` NamedTuples
costs one object header, five boxed fields and a memo entry per
rectangle; a :class:`ColumnarTile` holds the same tile as five flat
``array`` columns (four ``'d'`` coordinate columns plus one ``'q'``
identifier column), which pickle as raw buffers — a single memcpy per
column instead of per-rectangle object traversal.  The numpy sweep
kernel reads the columns in place; the python kernel decodes a tile
once into a local ``List[Rect]`` and sweeps over the locals.

The codec is exact: coordinates travel as the same IEEE-754 doubles the
in-memory ``Rect`` holds (``array('d')`` is a lossless round-trip for
Python floats), and identifiers as signed 64-bit integers.  A decoded
tile is therefore element-for-element equal to the encoded input, in
the same order — the property the partitioned executor's pair-set
equality with serial execution rests on.

The same format backs the engine's partition-artifact cache: a cached
distribution is retained as one :class:`TileImage` a side — every
tile's columns back to back, the tiles zero-copy views into them — at
~40 bytes per rectangle (plus replication) instead of the several
hundred a boxed ``Rect`` list would; re-shipping it to a process
worker needs no re-encode, and a window prunes all of its tiles with
one pass over the image.

Results travel the other way in the same spirit: :class:`PairColumns`
holds the id pairs (or multiway tuples) a numpy engine reports as one
``(n, arity)`` int64 array that reads like the list of tuples it
replaces, so pairs are concatenated, filtered, pickled and cached
as arrays, and boxed only when a caller iterates them.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import chain
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.geom.rect import Rect

#: Per-rectangle payload of the columnar format: four float64 corner
#: coordinates plus one int64 identifier.
COLUMN_BYTES_PER_RECT = 4 * 8 + 8


class ColumnarTile:
    """One tile of rectangles as five flat columns.

    Construction is append-oriented (the distribute phase feeds tiles
    one rectangle at a time); :meth:`decode` rebuilds the boxed ``Rect``
    list on the far side.  Instances pickle efficiently — each column
    is one contiguous buffer.
    """

    # Weakly referenceable: the pool's shared-memory manager unpins a
    # tile's segment from a finalizer on the tile.
    __slots__ = ("xlo", "xhi", "ylo", "yhi", "rid", "source",
                 "__weakref__")

    def __init__(self) -> None:
        self.xlo = array("d")
        self.xhi = array("d")
        self.ylo = array("d")
        self.yhi = array("d")
        self.rid = array("q")
        #: ``(columns, lo, hi)`` when the tile is rows ``lo:hi`` of a
        #: :class:`TileImage`'s ``columns``, else ``None``: tiles that
        #: are adjacent runs of one image read as one slice of it.
        self.source = None

    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "ColumnarTile":
        tile = cls()
        tile.extend(rects)
        return tile

    @classmethod
    def wrap(cls, xlo, xhi, ylo, yhi, rid) -> "ColumnarTile":
        """A read-only tile over five column views, copying nothing.

        The views (float64 x4 + int64 memoryviews of equal length)
        keep their buffers alive; like a :meth:`view_over` tile it is
        never appended to.
        """
        tile = cls.__new__(cls)
        tile.xlo, tile.xhi, tile.ylo, tile.yhi, tile.rid = (
            xlo, xhi, ylo, yhi, rid
        )
        tile.source = None
        return tile

    def extend_columns(self, xlo, xhi, ylo, yhi, rid) -> None:
        """Append five contiguous column buffers, float64 x4 + int64
        runs of equal length (numpy arrays, memoryviews), one
        ``frombytes`` memcpy each: no ``Rect`` is built."""
        for col, src in ((self.xlo, xlo), (self.xhi, xhi), (self.ylo, ylo),
                         (self.yhi, yhi), (self.rid, rid)):
            col.frombytes(memoryview(src).cast("B"))

    def append(self, r: Rect) -> None:
        self.xlo.append(r.xlo)
        self.xhi.append(r.xhi)
        self.ylo.append(r.ylo)
        self.yhi.append(r.yhi)
        self.rid.append(r.rid)

    def extend(self, rects: Iterable[Rect]) -> None:
        # Column-at-a-time bulk append beats per-rect append for the
        # common encode-a-whole-list case, but needs a second pass per
        # column; a materialized sequence makes those passes cheap.
        rects = rects if isinstance(rects, (list, tuple)) else list(rects)
        self.xlo.extend(r.xlo for r in rects)
        self.xhi.extend(r.xhi for r in rects)
        self.ylo.extend(r.ylo for r in rects)
        self.yhi.extend(r.yhi for r in rects)
        self.rid.extend(r.rid for r in rects)

    def decode(self) -> List[Rect]:
        """The boxed rectangle list, element-for-element, in order."""
        return list(map(Rect, self.xlo, self.xhi, self.ylo, self.yhi,
                        self.rid))

    def __len__(self) -> int:
        return len(self.rid)

    @property
    def nbytes(self) -> int:
        """Resident payload bytes of the five columns."""
        return (
            self.xlo.itemsize * len(self.xlo)
            + self.xhi.itemsize * len(self.xhi)
            + self.ylo.itemsize * len(self.ylo)
            + self.yhi.itemsize * len(self.yhi)
            + self.rid.itemsize * len(self.rid)
        )

    # -- shared-memory packing -------------------------------------------
    #
    # The zero-copy shipping path writes a tile's five columns
    # contiguously into a shared-memory buffer (``pack_into``) and
    # reconstructs them on the far side as memoryview casts over the
    # same buffer (``view_over``) — no pickle, no memcpy on the read
    # side.  A view tile supports everything a worker does with a tile
    # (len, decode, iteration over columns, ``nbytes``) but is
    # read-only: ``append``/``extend`` on it raise, which is the
    # contract — shared segments are immutable once published.

    def pack_into(self, buf, offset: int) -> int:
        """Write the five columns contiguously at ``buf[offset:]``.

        Layout: ``xlo | xhi | ylo | yhi`` as float64 runs, then ``rid``
        as an int64 run — :data:`COLUMN_BYTES_PER_RECT` bytes per
        rectangle.  Returns the number of bytes written.
        """
        mv = memoryview(buf)
        o = offset
        for col in (self.xlo, self.xhi, self.ylo, self.yhi, self.rid):
            raw = memoryview(col).cast("B")
            mv[o:o + raw.nbytes] = raw
            o += raw.nbytes
        return o - offset

    @classmethod
    def view_over(cls, buf, offset: int, count: int) -> "ColumnarTile":
        """A zero-copy tile whose columns are views into ``buf``.

        The inverse of :meth:`pack_into`: ``buf`` is typically a
        shared-memory segment mapped by a pool worker, and the returned
        tile reads the coordinator's bytes in place.  The caller owns
        the buffer's lifetime — every column view must be dead before
        the segment can be closed (the ``BufferError`` contract of
        ``memoryview``).
        """
        mv = memoryview(buf)
        tile = cls.__new__(cls)
        o = offset
        stride = 8 * count
        for name in ("xlo", "xhi", "ylo", "yhi"):
            setattr(tile, name, mv[o:o + stride].cast("d"))
            o += stride
        tile.rid = mv[o:o + stride].cast("q")
        tile.source = None
        return tile

    # Pickle via __reduce__ keeps the arrays as raw buffers and stays
    # independent of __slots__ defaults.  A *view* tile (shm or column
    # image) pickles by copying its columns back into real arrays, one
    # memcpy each — crossing a pickle boundary forfeits zero-copy,
    # never correctness.
    def __reduce__(self):
        return (_rebuild_tile, tuple(
            col if isinstance(col, array) else _array_of(code, col)
            for col, code in (
                (self.xlo, "d"), (self.xhi, "d"), (self.ylo, "d"),
                (self.yhi, "d"), (self.rid, "q"),
            )
        ))


def _array_of(code: str, view) -> array:
    out = array(code)
    out.frombytes(memoryview(view).cast("B"))
    return out


def _rebuild_tile(xlo, xhi, ylo, yhi, rid) -> ColumnarTile:
    return ColumnarTile.wrap(xlo, xhi, ylo, yhi, rid)


class TileImage:
    """Many tiles of one side as a single column image.

    ``columns`` are five contiguous buffers (``xlo``, ``xhi``, ``ylo``,
    ``yhi`` float64 and ``rid`` int64 — ``array`` or numpy) holding
    every tile's rows back to back; tile *i* is rows
    ``offsets[i]:offsets[i + 1]``.  ``tiles`` are zero-copy
    :class:`ColumnarTile` views of those runs, made once, so a tile
    keeps its identity for as long as the image lives (the pool's
    shared-memory manager re-ships a tile it packed before by
    reference), and each names its run in ``source``.  One column
    pass over the image — a window mask — covers every tile at once.
    """

    __slots__ = ("columns", "offsets", "tiles")

    def __init__(self, columns: Sequence, offsets: Sequence[int]) -> None:
        self.columns = tuple(columns)
        self.offsets = list(offsets)
        views = [memoryview(col) for col in self.columns]
        self.tiles = []
        for lo, hi in zip(self.offsets, self.offsets[1:]):
            tile = ColumnarTile.wrap(*(view[lo:hi] for view in views))
            # The columns, not the image: no reference cycle, so the
            # buffers go the moment the last tile or image does.
            tile.source = (self.columns, lo, hi)
            self.tiles.append(tile)

    @classmethod
    def holding(cls, tiles: Sequence[ColumnarTile]) -> "TileImage":
        """An image of ``tiles``, in order, sharing their buffers where
        it can.

        Tiles that are views of one image's columns (``source``) and
        cover them end to end, in row order — a cold distribute's
        joining partitions, as a rule — need no copy: the image is
        those columns.  Any other tiles are copied (:meth:`concat`).
        Either way the tiles are new views, so the image shares no
        tile, and no shared-memory pin, with the tiles it was made
        from.
        """
        sources = [tile.source for tile in tiles]
        columns = sources[0][0] if sources and sources[0] else None
        if columns is not None and all(
            src is not None and src[0] is columns for src in sources
        ):
            his = [hi for _, _, hi in sources]
            if ([lo for _, lo, _ in sources] == [0, *his[:-1]]
                    and his[-1] == len(columns[4])):
                return cls(columns, [0, *his])
        return cls.concat(tiles)

    @classmethod
    def concat(cls, tiles: Iterable[ColumnarTile]) -> "TileImage":
        """``tiles`` copied into one image, in order (one memcpy per
        column a tile)."""
        image = ColumnarTile()
        offsets = [0]
        for tile in tiles:
            image.extend_columns(tile.xlo, tile.xhi, tile.ylo, tile.yhi,
                                 tile.rid)
            offsets.append(len(image))
        return cls((image.xlo, image.xhi, image.ylo, image.yhi,
                    image.rid), offsets)

    def __len__(self) -> int:
        return self.offsets[-1]


class DistributionImage:
    """A retained distribution: one :class:`TileImage` a side.

    Reads as the task list it was built from — ``(part_id, tile_a,
    tile_b)`` per partition, ``tile_b`` ``None`` for a self-join — with
    every tile a view into its side's image, so the distribution is
    held once, in ``images`` (one for a self-join, two otherwise).
    Tiles that already are views of one image a side, as a cold
    distribute's are, share its columns (:meth:`TileImage.holding`).
    """

    __slots__ = ("parts", "images", "tasks")

    def __init__(self, tasks: Iterable[tuple]) -> None:
        tasks = list(tasks)
        self.parts = [part for part, _, _ in tasks]
        self_join = any(b is None for _, _, b in tasks)
        self.images = tuple(
            TileImage.holding([task[side] for task in tasks])
            for side in ((1,) if self_join else (1, 2))
        )
        self.tasks = self.cut([image.tiles for image in self.images])

    def cut(self, sides: Sequence[Sequence]) -> List[tuple]:
        """Tasks from one sequence of tiles per image, in partition
        order; one side is a self-join's."""
        side_b = sides[1] if len(sides) > 1 else [None] * len(self.parts)
        return list(zip(self.parts, sides[0], side_b))

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)


class PairColumns(Sequence):
    """An immutable sequence of id tuples held as one int64 array.

    ``ids`` is the ``(n, arity)`` array itself — row *i* is the *i*-th
    pair (arity 2) or multiway tuple — and the instance reads like the
    ``list`` of ``tuple`` it stands in for: ``len``, iteration,
    indexing (a slice is another :class:`PairColumns` over a view),
    ``==`` against lists in either direction, ``sorted``, ``set``.
    Tuples are built when asked for and never kept, so what an
    instance holds (and what a cache charges for it) is ``ids.nbytes``
    for its whole life.  The array is marked read-only at
    construction: results are shared between the cache and every hit
    instead of copied, which is safe only because nobody can write to
    them.  Pickles as the array (one buffer), not tuple by tuple.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: "np.ndarray") -> None:
        # Takes ownership: the caller's array becomes read-only too.
        ids.flags.writeable = False
        self.ids = ids

    @classmethod
    def empty(cls, arity: int = 2) -> "PairColumns":
        return cls(np.empty((0, arity), dtype=np.int64))

    @classmethod
    def from_pairs(cls, pairs: Sequence, arity: int = 2) -> "PairColumns":
        """``pairs`` as columns: itself if it already is, else one
        ``fromiter`` pass over a sequence of ``arity``-tuples."""
        if isinstance(pairs, cls):
            return pairs
        return cls(np.fromiter(
            chain.from_iterable(pairs), np.int64, len(pairs) * arity,
        ).reshape(-1, arity))

    @classmethod
    def concat(cls, parts: Iterable[Sequence],
               arity: int = 2) -> "PairColumns":
        """The parts back to back, in order; lists among them convert."""
        arrays = [cls.from_pairs(p, arity).ids for p in parts if len(p)]
        if not arrays:
            return cls.empty(arity)
        if len(arrays) == 1:
            return cls(arrays[0])
        return cls(np.concatenate(arrays))

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return map(tuple, self.ids.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PairColumns(self.ids[index])
        return tuple(self.ids[index].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, PairColumns):
            if len(self) != len(other):
                return False
            return len(self) == 0 or bool(np.array_equal(self.ids, other.ids))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PairColumns(n={len(self)}, arity={self.ids.shape[1]})"

    def __reduce__(self):
        return (PairColumns, (self.ids,))

