"""Sequential rectangle streams — the TPIE stream BTE analogue.

SSSJ and PBSM are stream algorithms: they read and write relations as
sequences of 20-byte rectangle records in logical blocks (the paper used
512 KB blocks to exploit sequential bandwidth, Section 5.2).  A
:class:`Stream` buffers appended rectangles and flushes a block to
disk whenever the buffer fills.  Like a filesystem growing a file, a
stream reserves disk space in contiguous multi-block extents
(``RESERVE_BLOCKS`` at a time): blocks of one stream lie back-to-back
inside each extent, while several streams being written concurrently
claim alternating extents.  The machine observers therefore see a
single stream writing sequentially, but the 2p PBSM partition streams
seeking between their extents — exactly the "one non-sequential write
pass" of Section 3.2.

A stream is fed either rectangles (:meth:`Stream.append`) or rows of a
column image (:meth:`Stream.append_rows`, the numpy engines' spill
path), never both.  The two differ only in what a block's payload is —
a tuple of ``Rect`` or a :class:`ColumnBlock` of five column arrays —
and the simulated disk cannot tell them apart: a row-fed stream
flushes at the same record, reserves the same extents and declares the
same ``count x RECT_BYTES`` as the rectangle-fed stream it stands in
for, and a ``Rect`` consumer reads rectangles from either.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.geom.rect import RECT_BYTES, Rect
from repro.storage.disk import Disk

#: Contiguous blocks reserved per extent when a stream grows (the
#: filesystem-extent analogue; keeps one stream sequential while
#: interleaved streams seek between extents).
RESERVE_BLOCKS = 4


class ColumnBlock:
    """One block of a row-fed stream: its records as five columns.

    Gathered from the column image when the block is flushed, so the
    payload owns its bytes as a written block does.  Iterating decodes
    to ``Rect`` — the same IEEE doubles and ids the image was built
    from — which is all a rectangle consumer of the block needs.
    """

    __slots__ = ("xlo", "xhi", "ylo", "yhi", "rid")

    def __init__(self, image, rows) -> None:
        self.xlo = image.xlo[rows]
        self.xhi = image.xhi[rows]
        self.ylo = image.ylo[rows]
        self.yhi = image.yhi[rows]
        self.rid = image.rid[rows]

    def __len__(self) -> int:
        return len(self.rid)

    def __iter__(self) -> Iterator[Rect]:
        return map(Rect, self.xlo.tolist(), self.xhi.tolist(),
                   self.ylo.tolist(), self.yhi.tolist(), self.rid.tolist())


class Stream:
    """An appendable, re-readable sequence of rectangles on disk.

    The lifecycle is write-then-read: ``append``/``extend`` (or
    ``append_rows``) while writing, then ``close()`` (flushes the tail
    block), after which the stream may be scanned any number of times
    with ``scan()``.  Appending after close raises — a closed stream is
    immutable, like a finished TPIE temp file.
    """

    def __init__(self, disk: Disk, block_bytes: Optional[int] = None,
                 name: str = "") -> None:
        self.disk = disk
        self.block_bytes = block_bytes or disk.env.scale.stream_block_bytes
        self.block_capacity = max(1, self.block_bytes // RECT_BYTES)
        self.name = name
        self._block_offsets: List[int] = []
        self._block_lengths: List[int] = []
        self._reserve_pos = 0
        self._reserve_end = 0
        self._buffer: List[Rect] = []
        # A row-fed stream buffers index chunks into ``_image`` instead.
        self._image = None
        self._row_chunks: list = []
        self._rows_buffered = 0
        self._count = 0
        self._closed = False

    # -- writing ---------------------------------------------------------

    def append(self, rect: Rect) -> None:
        if self._closed:
            raise RuntimeError(f"stream {self.name!r} is closed")
        if self._image is not None:
            raise RuntimeError(f"stream {self.name!r} is fed rows")
        self._buffer.append(rect)
        self._count += 1
        if len(self._buffer) >= self.block_capacity:
            self._flush_block()

    def extend(self, rects: Iterable[Rect]) -> None:
        for r in rects:
            self.append(r)

    def append_rows(self, image, rows) -> None:
        """Append ``rows`` of ``image`` (an index array), in order.

        What ``extend`` would do with the rectangles those rows hold,
        without building them: a block is flushed at every record that
        fills the buffer, and its payload is a :class:`ColumnBlock`.
        ``image`` is a column image (``xlo`` … ``rid`` arrays) and the
        same one for the stream's whole life.
        """
        if self._closed:
            raise RuntimeError(f"stream {self.name!r} is closed")
        if self._image is not image and (
                self._count or self._image is not None):
            raise RuntimeError(
                f"stream {self.name!r} takes rectangles or rows of one "
                f"image, not both"
            )
        self._image = image
        self._count += len(rows)
        start = 0
        while len(rows) - start >= self.room:
            stop = start + self.room
            self._row_chunks.append(rows[start:stop])
            self._rows_buffered = self.block_capacity
            self._flush_block()
            start = stop
        if start < len(rows):
            self._row_chunks.append(rows[start:])
            self._rows_buffered += len(rows) - start

    @property
    def _pending(self) -> int:
        """Records buffered since the last flush, in either form."""
        return self._rows_buffered or len(self._buffer)

    @property
    def room(self) -> int:
        """Records the buffer still takes; the last of them flushes."""
        return self.block_capacity - self._pending

    def close(self) -> "Stream":
        """Flush the tail block and freeze the stream.  Idempotent."""
        if not self._closed:
            if self._pending:
                self._flush_block()
            self._closed = True
        return self

    # -- reading ---------------------------------------------------------

    def scan(self) -> Iterator[Rect]:
        """Yield all rectangles in append order, charging block reads."""
        self._require_closed("scan")
        for offset in self._block_offsets:
            block = self.disk.read(offset)
            yield from block

    def scan_blocks(self) -> Iterator[Sequence[Rect]]:
        """Yield whole blocks of rectangles, charging block reads."""
        self._require_closed("scan_blocks")
        for offset in self._block_offsets:
            block = self.disk.read(offset)
            yield tuple(block) if self.row_fed else block

    def scan_columns(self) -> Iterator[ColumnBlock]:
        """Yield a row-fed stream's blocks as they were written,
        charging the same block reads as :meth:`scan`."""
        self._require_closed("scan_columns")
        if not self.row_fed:
            raise RuntimeError(f"stream {self.name!r} holds rectangles")
        for offset in self._block_offsets:
            yield self.disk.read(offset)

    # -- metadata ----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def row_fed(self) -> bool:
        """Whether the blocks are :class:`ColumnBlock` payloads."""
        return self._image is not None

    @property
    def num_blocks(self) -> int:
        return len(self._block_offsets)

    @property
    def data_bytes(self) -> int:
        """Logical payload size: records x 20 bytes (paper Table 2)."""
        return self._count * RECT_BYTES

    def free(self) -> None:
        """Release block payloads (temporary run files)."""
        for offset in self._block_offsets:
            self.disk.free(offset)
        self._block_offsets.clear()
        self._block_lengths.clear()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_rects(cls, disk: Disk, rects: Iterable[Rect],
                   block_bytes: Optional[int] = None,
                   name: str = "") -> "Stream":
        s = cls(disk, block_bytes=block_bytes, name=name)
        s.extend(rects)
        return s.close()

    # -- internals -----------------------------------------------------------

    def _flush_block(self) -> None:
        nbytes = self._pending * RECT_BYTES
        if self._reserve_pos + nbytes > self._reserve_end:
            # Extent size is a whole number of full blocks so that
            # consecutive flushes of one stream stay byte-contiguous.
            extent = self.block_capacity * RECT_BYTES * RESERVE_BLOCKS
            self._reserve_pos = self.disk.allocate(max(extent, nbytes))
            self._reserve_end = self._reserve_pos + max(extent, nbytes)
        offset = self._reserve_pos
        self._reserve_pos += nbytes
        if self._image is None:
            payload = tuple(self._buffer)
            self._buffer = []
        else:
            chunks = self._row_chunks
            payload = ColumnBlock(
                self._image,
                chunks[0] if len(chunks) == 1 else np.concatenate(chunks),
            )
            self._row_chunks = []
            self._rows_buffered = 0
        self.disk.write(offset, nbytes, payload)
        self._block_offsets.append(offset)
        self._block_lengths.append(nbytes)

    def _require_closed(self, op: str) -> None:
        if not self._closed:
            raise RuntimeError(
                f"cannot {op} stream {self.name!r} before close()"
            )
