"""Internal-memory plane-sweep kernel and its interval structures.

Every join in the paper bottoms out in the same internal computation: a
horizontal sweep-line moves up the y-axis; rectangles currently cut by
the line form two *active sets* (one per input); each arriving rectangle
is tested for x-interval intersection against the opposite active set
(Section 3.1).  The paper's implementations use two structures from
Arge et al. [4]:

* :class:`ForwardSweep` — the classic list-scan used by previous joins
  (Brinkhoff et al., Patel & DeWitt): probe the whole opposite active
  list, lazily evicting dead entries as they are encountered;
* :class:`StripedSweep` — the x-axis is cut into fixed-width strips and
  each active rectangle is registered in every strip it overlaps, so a
  probe touches only the strips the probing rectangle spans.  [4]
  measured it 2-5x faster than the alternatives on real data; the
  ablation bench reproduces that factor via the kernel's operation
  counts.

:func:`structure_factory` picks one of them for PQ, SSSJ and the
multiway cascade.  Both count their comparisons locally and flush them
to the environment in one call per join, keeping the accounting off the
inner loop.  They also track their resident size — the "Sweep
Structure" row of Table 3.

One merge loop (:func:`_sweep`) runs every sweep: it merges the two
y-sorted heads, refuses an input out of ``ylo`` order, compacts the
lazily expired entries on an amortized schedule (sampling the live
high-water mark there), raises SSSJ's overflow flag, and charges the
comparisons once at the end.  A probe appends the event's pairs to one
list, and the loop hands them out one of three ways:

* to a per-pair callback, or only counted (:func:`sweep_join`);
* kept in that list, which is returned (:func:`sweep_join_batched`);
* yielded as the sweep advances (:func:`sweep_join_iter`).

The streaming form never compacts.  It reports no stats, so it has no
high-water mark to sample, and its charge — which the multiway cascade
pays — stays the probes' and inserts' alone; the probes still evict
every dead entry they meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.geom.rect import RECT_BYTES, Rect, cells_per_unit

#: Fallback strip count for Striped-Sweep when nothing is known about
#: rectangle widths.  Prefer :func:`auto_strips`, which sizes strips
#: relative to the average rectangle width as in [4].
DEFAULT_STRIPS = 256

#: Upper bound on automatic strip counts (beyond this, strip overhead
#: and replication dominate any probe savings).
MAX_AUTO_STRIPS = 2048

#: The active-set structures a join config may name.
SWEEP_STRUCTURES = ("striped", "forward")

PairSink = Callable[[Rect, Rect], None]
Pairs = List[Tuple[Rect, Rect]]


def auto_strips(universe_xspan: float, avg_width: float,
                cap: int = MAX_AUTO_STRIPS) -> int:
    """Strip count such that an average rectangle spans ~1-2 strips.

    [4] sizes strips relative to the data: too-fine strips replicate
    every rectangle into many strips (hurting memory and inserts),
    too-coarse strips degenerate to Forward-Sweep.  ``avg_width == 0``
    (points) gets the cap.
    """
    if universe_xspan <= 0:
        return 1
    ratio = universe_xspan / (2.0 * avg_width) if avg_width > 0 else cap
    # Compared before the cast: a subnormal width can make it infinite.
    return cap if ratio >= cap else max(1, int(ratio))


class ForwardSweep:
    """Active set as a single list with lazy expiry during probes."""

    __slots__ = ("items", "ops", "size_items")

    def __init__(self) -> None:
        self.items: List[Rect] = []
        self.ops = 0
        self.size_items = 0

    def insert(self, r: Rect) -> None:
        self.items.append(r)
        self.size_items += 1
        self.ops += 1

    def probe(self, r: Rect, sweep_y: float, out: Pairs,
              probe_is_left: bool) -> None:
        """Append ``r``'s pair with every live x-overlapping entry to
        ``out``, evicting dead entries; one op per entry scanned.

        ``probe_is_left`` fixes the orientation: pairs are always
        (left-input rect, right-input rect).
        """
        items = self.items
        write = 0
        rxlo = r.xlo
        rxhi = r.xhi
        for cand in items:
            if cand.yhi < sweep_y:
                continue
            items[write] = cand
            write += 1
            if cand.xlo <= rxhi and rxlo <= cand.xhi:
                out.append((r, cand) if probe_is_left else (cand, r))
        scanned = len(items)
        self.ops += scanned
        if write < scanned:
            del items[write:]
            self.size_items -= scanned - write

    def compact(self, sweep_y: float) -> None:
        """Evict every entry dead at ``sweep_y`` (pre-overflow GC)."""
        items = self.items
        ops = len(items)
        live = [r for r in items if r.yhi >= sweep_y]
        self.items = live
        self.size_items = len(live)
        self.ops += ops

    @property
    def resident_bytes(self) -> int:
        return self.size_items * RECT_BYTES


class StripedSweep:
    """Active set partitioned into fixed-width x-strips.

    A rectangle is registered in every strip its x-interval overlaps; a
    probe only scans the strips the probing rectangle spans.  A pair
    spanning several common strips would be seen repeatedly, so it is
    emitted only in the strip containing the left edge of the x-overlap
    (the same reference-point idea PBSM uses across partitions).
    """

    __slots__ = ("xlo", "inv_width", "nstrips", "strips", "ops",
                 "size_items")

    def __init__(self, xlo: float, xhi: float,
                 nstrips: int = DEFAULT_STRIPS) -> None:
        if nstrips < 1:
            raise ValueError("need at least one strip")
        span = xhi - xlo
        if cells_per_unit(nstrips, span) == 0.0:
            # Degenerate universe (no width, or too thin for a finite
            # strip scale): everything lands in one strip.
            nstrips = 1
            span = 1.0
        self.xlo = xlo
        self.nstrips = nstrips
        self.inv_width = nstrips / span
        self.strips: List[List[Rect]] = [[] for _ in range(nstrips)]
        self.ops = 0
        self.size_items = 0

    def _strip_of(self, x: float) -> int:
        s = int((x - self.xlo) * self.inv_width)
        if s < 0:
            return 0
        if s >= self.nstrips:
            return self.nstrips - 1
        return s

    def insert(self, r: Rect) -> None:
        lo = self._strip_of(r.xlo)
        hi = self._strip_of(r.xhi)
        for s in range(lo, hi + 1):
            self.strips[s].append(r)
        n = hi - lo + 1
        self.size_items += n
        self.ops += n

    def probe(self, r: Rect, sweep_y: float, out: Pairs,
              probe_is_left: bool) -> None:
        """:meth:`ForwardSweep.probe` over the strips ``r`` spans."""
        rxlo = r.xlo
        rxhi = r.xhi
        ops = 0
        for s in range(self._strip_of(rxlo), self._strip_of(rxhi) + 1):
            strip = self.strips[s]
            write = 0
            for cand in strip:
                if cand.yhi < sweep_y:
                    continue
                strip[write] = cand
                write += 1
                if cand.xlo <= rxhi and rxlo <= cand.xhi:
                    # Dedup across strips: emit only in the strip that
                    # contains the left edge of the x-overlap.
                    edge = rxlo if rxlo >= cand.xlo else cand.xlo
                    if self._strip_of(edge) == s:
                        out.append((r, cand) if probe_is_left else (cand, r))
            scanned = len(strip)
            ops += scanned
            if write < scanned:
                del strip[write:]
                self.size_items -= scanned - write
        self.ops += ops

    def compact(self, sweep_y: float) -> None:
        """Evict dead entries from every strip.

        Strips expire lazily only when probed, so long-unprobed strips
        accumulate garbage; the driver compacts before concluding that
        the structure genuinely exceeds memory (only *live* rectangles
        count against the budget — dead ones are an implementation
        artifact a real system would reclaim the same way).
        """
        ops = 0
        total = 0
        for strip in self.strips:
            ops += len(strip)
            live = [r for r in strip if r.yhi >= sweep_y]
            strip[:] = live
            total += len(live)
        self.size_items = total
        self.ops += ops

    @property
    def resident_bytes(self) -> int:
        return self.size_items * RECT_BYTES


SweepStructureFactory = Callable[[], object]


def check_structure(structure: str) -> None:
    """Refuse a sweep-structure name outside :data:`SWEEP_STRUCTURES`."""
    if structure not in SWEEP_STRUCTURES:
        raise ValueError(f"unknown sweep structure {structure!r}; "
                         f"expected one of {SWEEP_STRUCTURES}")


def structure_factory(structure: str, nstrips: Optional[int],
                      bounds: Optional[Rect]) -> SweepStructureFactory:
    """The active-set factory of a PQ, SSSJ or multiway sweep.

    Striped-Sweep places its strips over ``bounds``' x-range
    (``DEFAULT_STRIPS`` of them when ``nstrips`` is unset); with no
    bounds known it cannot, and Forward-Sweep runs instead.
    """
    check_structure(structure)
    if structure == "forward" or bounds is None:
        return ForwardSweep
    n = DEFAULT_STRIPS if nstrips is None else nstrips
    return lambda: StripedSweep(bounds.xlo, bounds.xhi, n)


@dataclass
class SweepStats:
    """Kernel-level outcome of one sweep join."""

    pairs: int = 0
    cpu_ops: int = 0
    max_active_items: int = 0
    max_active_bytes: int = 0
    overflowed: bool = False


# How the merge loop hands out each event's pairs (module docstring).
_CALLBACK, _COLLECT, _STREAM = "callback", "collect", "stream"


def _sweep(source_a: Iterator[Rect], source_b: Iterator[Rect],
           make_structure: SweepStructureFactory, env, way: str,
           on_pair: Optional[PairSink] = None,
           memory_items: Optional[int] = None):
    """The merge loop behind every sweep entry point.

    A generator that yields pairs only when ``way`` is ``_STREAM``; the
    eager ways run to their end in one step (:func:`_run`) and return
    ``(pairs kept, SweepStats)``.
    """
    active_a = make_structure()
    active_b = make_structure()
    out: Pairs = []
    drain = way != _COLLECT
    stream = way == _STREAM
    compact_at = math.inf if stream else 64
    pairs = high_water = 0
    overflowed = False
    head_a = next(source_a, None)
    head_b = next(source_b, None)
    last_y = -math.inf
    while head_a is not None or head_b is not None:
        if head_b is None or (head_a is not None
                              and head_a.ylo <= head_b.ylo):
            r = head_a
            head_a = next(source_a, None)
            if r.ylo < last_y:
                raise ValueError("source A is not sorted by ylo")
            last_y = r.ylo
            active_b.probe(r, last_y, out, True)
            active_a.insert(r)
        else:
            r = head_b
            head_b = next(source_b, None)
            if r.ylo < last_y:
                raise ValueError("source B is not sorted by ylo")
            last_y = r.ylo
            active_a.probe(r, last_y, out, False)
            active_b.insert(r)
        if out and drain:
            if stream:
                yield from out
            elif on_pair is not None:
                for ra, rb in out:
                    on_pair(ra, rb)
            pairs += len(out)
            out.clear()
        total = active_a.size_items + active_b.size_items
        # Lazily-expired garbage inflates the raw count.  Compact (an
        # amortized-O(1) GC: whenever the raw count doubles since the
        # last collection, or first passes the memory limit) and record
        # the high-water mark over *live* sizes sampled at compaction
        # points — dead entries are an implementation artifact, not
        # memory the algorithm needs.  Live size between samples is
        # bounded by 2x the last sample.
        over_limit = (memory_items is not None and not overflowed
                      and total > memory_items)
        if total > compact_at or over_limit:
            active_a.compact(last_y)
            active_b.compact(last_y)
            total = active_a.size_items + active_b.size_items
            compact_at = max(64, 2 * total)
            if memory_items is not None and total > memory_items:
                overflowed = True
            if total > high_water:
                high_water = total
        elif total <= 64 and total > high_water:
            # Below the first compaction threshold the raw count is
            # (nearly) exact; record it so tiny joins report a size.
            high_water = total

    ops = active_a.ops + active_b.ops
    env.charge("sweep", ops)
    return out, SweepStats(pairs + len(out), ops, high_water,
                           high_water * RECT_BYTES, overflowed)


def _run(loop) -> Tuple[Pairs, SweepStats]:
    """An eager :func:`_sweep` to its end: it never yields, so the
    first step is the last."""
    try:
        next(loop)
    except StopIteration as end:
        return end.value
    raise AssertionError("an eager sweep yielded")


def sweep_join(
    source_a: Iterator[Rect],
    source_b: Iterator[Rect],
    make_structure: SweepStructureFactory,
    env,
    on_pair: Optional[PairSink] = None,
    memory_items: Optional[int] = None,
) -> SweepStats:
    """Run the plane sweep over two y-sorted rectangle iterators.

    ``make_structure`` builds one active-set structure; it is called
    twice (one active set per input).  ``on_pair`` receives every
    intersecting pair oriented (a-rect, b-rect); pass ``None`` to count
    only.  If ``memory_items`` is given and the combined active sets
    ever exceed it, the sweep sets ``overflowed`` in its stats — SSSJ
    uses this to trigger its partitioning fallback.

    The iterators must be sorted by ascending ``ylo``; this is asserted
    as the sweep advances, because feeding an unsorted stream silently
    produces garbage results otherwise.
    """
    return _run(_sweep(source_a, source_b, make_structure, env, _CALLBACK,
                       on_pair, memory_items))[1]


def sweep_join_batched(
    source_a: Iterator[Rect],
    source_b: Iterator[Rect],
    make_structure: SweepStructureFactory,
    env,
) -> Tuple[Pairs, SweepStats]:
    """:func:`sweep_join` that returns the oriented ``(a-rect,
    b-rect)`` pairs in emit order instead of calling a sink; the caller
    applies any per-pair policy (reference-point ownership, self-join
    dedup) in its own tight loop."""
    return _run(_sweep(source_a, source_b, make_structure, env, _COLLECT))


def sweep_join_iter(
    source_a: Iterator[Rect],
    source_b: Iterator[Rect],
    make_structure: SweepStructureFactory,
    env,
) -> Iterator[Tuple[Rect, Rect]]:
    """Generator form of :func:`sweep_join`, yielding oriented pairs.

    Pairs stream out in sweep order: the y-position at which a pair is
    discovered is ``max(a.ylo, b.ylo)``, which is exactly the sweep-line
    position — so the *intersection rectangles* of the output are
    themselves sorted by ``ylo``.  That property is what lets Section 4
    feed the output of a two-way join straight into another join
    (:class:`repro.core.sources.JoinSource`).  The comparisons are
    charged when the generator is exhausted.
    """
    return _sweep(source_a, source_b, make_structure, env, _STREAM)


def _sorted_inputs_charged(
    rects_a: Iterable[Rect],
    rects_b: Iterable[Rect],
    env,
    presorted: bool,
) -> Tuple[Iterator[Rect], Iterator[Rect]]:
    """Copy-and-sort both inputs by ``(ylo, xlo)``, charging the sort.

    Shared by the callback and batched forward sweeps so their op
    accounting can never desynchronize: one formula, one place.
    """
    list_a = list(rects_a)
    list_b = list(rects_b)
    if not presorted:
        list_a.sort(key=_ylo_key)
        list_b.sort(key=_ylo_key)
        n = len(list_a) + len(list_b)
        if n > 1:
            env.charge("sweep", int(n * math.log2(n)))
    return iter(list_a), iter(list_b)


def forward_sweep_pairs(
    rects_a: Iterable[Rect],
    rects_b: Iterable[Rect],
    env,
    on_pair: Optional[PairSink] = None,
    presorted: bool = False,
) -> SweepStats:
    """Forward-sweep two in-memory sets (ST's per-node-pair computation).

    Sorting cost (when needed) is charged under ``sweep``; the paper's
    tree join sorts each node's surviving entries before sweeping.
    """
    iter_a, iter_b = _sorted_inputs_charged(rects_a, rects_b, env,
                                            presorted)
    return sweep_join(iter_a, iter_b, ForwardSweep, env, on_pair=on_pair)


def forward_sweep_pairs_batched(
    rects_a: Iterable[Rect],
    rects_b: Iterable[Rect],
    env,
    presorted: bool = False,
) -> Tuple[Pairs, SweepStats]:
    """:func:`forward_sweep_pairs` returning the pairs as
    :func:`sweep_join_batched` does, with the same charges."""
    iter_a, iter_b = _sorted_inputs_charged(rects_a, rects_b, env,
                                            presorted)
    return sweep_join_batched(iter_a, iter_b, ForwardSweep, env)


def _ylo_key(r: Rect) -> Tuple[float, float]:
    return (r.ylo, r.xlo)
