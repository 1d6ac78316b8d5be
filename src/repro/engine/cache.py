"""Engine caches: query results and execution artifacts.

Two caches live here.  :class:`ResultCache` is a size-aware LRU over
*answers* — the second identical query costs a dictionary lookup.
:class:`ArtifactCache` is an LRU over *reusable execution
intermediates*: the per-partition tiles the partitioned executor
produced for a relation pair, held as one column image a side
(:class:`~repro.core.columnar.DistributionImage`), so a warm repeated
(or overlapping, e.g. the same relations under a different predicate,
a window inside the full distribution, or with the result cache
disabled) query skips the whole distribute phase and goes straight to
the sweeps.

Result-cache entries are governed by their own byte ledger; artifacts
share one LRU and are charged to the engine's execution
:class:`~repro.engine.resources.ResourceBudget` under the
``"artifacts"`` category, but only ever occupy *free* budget bytes
(``grant.try_extend``) and are evicted on demand — cached artifacts can
never starve a query's tile grant into spilling.  Both caches live and
die with the engine process.

Size-aware LRU result cache keyed by canonical query + versions.

A serving engine sees the same heavy joins again and again (dashboards,
tile servers); the second identical query should cost a dictionary
lookup, not an external sort.  Keys are produced by
``Query.canonical()`` combined with the versions of the referenced
catalog entries (see :meth:`repro.engine.catalog.Catalog.versions_of`),
so re-registered relations never serve stale results.

Eviction is LRU under two limits: an entry-count ``capacity`` and an
optional byte budget ``max_bytes``.  Entry footprints are approximated
by :func:`approx_result_bytes` (the pairs dominate: an id array's own
size when they are columns, pairs x per-tuple cost when they are a
list, plus a fixed overhead); a single result larger than the whole
byte budget is served but never cached.

The cache keeps its own byte ledger (``bytes_used``, surfaced as
``result_cache_bytes`` in the engine snapshot) rather than charging
the engine's execution :class:`~repro.engine.resources.ResourceBudget`:
that budget models the paper's *internal algorithm memory* (sort
chunks, tiles, buffer pool), and letting cached results consume it
would pin the executor's grants at zero and force spurious spilling —
result memory is governed here, by ``max_bytes``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, NamedTuple, Optional, Tuple

from repro.core.columnar import PairColumns
from repro.geom.rect import RECT_BYTES, union_mbr

#: Approximate CPython cost of one cached id tuple: tuple header plus
#: one pointer-and-int per component.  Deliberately rough — the cache
#: needs proportionality, not byte-exactness.
_TUPLE_BYTES = 56
_ID_BYTES = 36
#: Fixed per-entry overhead (result object, detail dict, key).
_ENTRY_BYTES = 512


def approx_result_bytes(value: Any) -> int:
    """Approximate resident bytes of a cached result.

    Works on anything exposing ``pairs``
    (:class:`~repro.core.join_result.JoinResult`); other values get the
    fixed overhead only.  Columnar pairs cost their id array — they
    never keep the tuples they hand out, so that stays true for as
    long as the entry lives; a list is estimated per boxed tuple.
    """
    pairs = getattr(value, "pairs", None)
    if isinstance(pairs, PairColumns):
        return _ENTRY_BYTES + pairs.nbytes
    if not pairs:
        return _ENTRY_BYTES
    width = len(pairs[0])
    return _ENTRY_BYTES + len(pairs) * (_TUPLE_BYTES + width * _ID_BYTES)


class ResultCache:
    """LRU map from canonical query keys to results, bounded by bytes.

    ``capacity`` bounds the entry count (the pre-budget behaviour);
    ``max_bytes`` additionally bounds the approximate resident bytes.
    ``max_bytes=None`` disables byte-based eviction.
    """

    def __init__(self, capacity: int = 64,
                 max_bytes: Optional[int] = None) -> None:
        if capacity < 0:
            raise ValueError("cache capacity cannot be negative")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("cache byte budget cannot be negative")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._sizes: Dict[Hashable, int] = {}
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.oversized_rejections = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed to most-recently-used; or None."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        return None

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value or None, counting and refreshing nothing."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any,
            nbytes: Optional[int] = None) -> None:
        if self.capacity == 0 or self.max_bytes == 0:
            return
        if nbytes is None:
            nbytes = approx_result_bytes(value)
        if self.max_bytes is not None and nbytes > self.max_bytes:
            # Larger than the whole byte budget: caching it would just
            # evict everything else and then be evicted itself.
            self.oversized_rejections += 1
            return
        if key in self._entries:
            self._forget(key)
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._sizes[key] = nbytes
        self.bytes_used += nbytes
        while len(self._entries) > self.capacity or (
            self.max_bytes is not None and self.bytes_used > self.max_bytes
        ):
            stale_key, _ = self._entries.popitem(last=False)
            self._release_size(stale_key)
            self.evictions += 1

    def invalidate_relation(self, name: str) -> int:
        """Drop every entry whose key references relation ``name``.

        Version-stamped keys already make stale entries unreachable;
        eager invalidation additionally frees their memory the moment a
        relation is re-registered or dropped.  Returns the number of
        entries removed.
        """
        stale = [k for k in self._entries if _mentions(k, name)]
        for k in stale:
            self._forget(k)
        self.invalidations += len(stale)
        return len(stale)

    def pop(self, key: Hashable) -> Optional[Any]:
        """Silently drop one entry (no counter bumps); returns it or None.

        Used by EXPLAIN ANALYZE to force re-execution of a cached query
        without skewing the hit/miss statistics.
        """
        if key not in self._entries:
            return None
        value = self._entries[key]
        self._forget(key)
        return value

    def clear(self) -> None:
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._sizes.clear()
        self.bytes_used = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes_used,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "oversized_rejections": self.oversized_rejections,
        }

    # -- internals -------------------------------------------------------

    def _forget(self, key: Hashable) -> None:
        del self._entries[key]
        self._release_size(key)

    def _release_size(self, key: Hashable) -> None:
        self.bytes_used -= self._sizes.pop(key, 0)


def _mentions(key: Hashable, name: str) -> bool:
    """True when a cache key's version tuple references ``name``.

    Keys are ``(canonical query, ((name, version), ...))``; the second
    component is what carries relation names.
    """
    if not isinstance(key, tuple) or len(key) != 2:
        return False
    versions: Tuple = key[1]
    return any(
        isinstance(v, tuple) and len(v) == 2 and v[0] == name
        for v in versions
    )


# -- execution artifacts -----------------------------------------------------

#: Fixed per-artifact overhead (key, entry object, task tuples).
_ARTIFACT_ENTRY_BYTES = 512
#: Per-partition overhead within an artifact (tuple + list slots).
_ARTIFACT_TASK_BYTES = 96

#: Tile grid resolution for partitioned plans.  Coarser than PBSM's
#: 128x128 because partitions here number workers x 4, not hundreds.
DEFAULT_TILES_PER_SIDE = 32


def grid_tiles(partitions: int) -> int:
    """The effective tile resolution for ``partitions``: the grid
    doubles until it can feed every partition at least one tile."""
    tiles = DEFAULT_TILES_PER_SIDE
    while tiles * tiles < partitions:
        tiles *= 2
    return tiles


class Candidate(NamedTuple):
    """One key an artifact may be cached under.

    ``key`` is built on catalog versions, which a re-registration
    bumps, so stale entries are unreachable; the leading
    ``((name, version), ...)`` tuple is what
    :meth:`ArtifactCache.invalidate_relation` scans.  A distribution
    also carries the ``universe`` its grid covers and the window the
    executor must ``prune`` it to when a query reuses this candidate
    (``None``: the tiles hold exactly what the query asked for) — once,
    on the coordinator, over the cached column image, before any tile
    is grouped or shipped.
    """

    key: Tuple
    universe: Any = None
    prune: Any = None


class ArtifactIdentity(NamedTuple):
    """What one plan looks for, best candidate first, and the grid a
    distribution is cut on (``tiles`` a side)."""

    candidates: Tuple[Candidate, ...]
    tiles: int


class ArtifactHit(NamedTuple):
    """A :meth:`ArtifactCache.fetch` that found something: the value
    and the candidate it was found under."""

    value: Any
    candidate: Candidate


def artifact_bytes(tasks) -> int:
    """Approximate resident bytes of one partition artifact's tiles.

    ``tasks`` iterates ``(part_id, tile_a, tile_b or None)`` (a
    :class:`~repro.core.columnar.DistributionImage` does, its tiles
    views into the image, so the image is charged once).  Each tile is
    charged its flat columns plus its logical size at the repo's
    ``RECT_BYTES`` convention — headroom for what a sweep materializes
    from it.  Eviction points, and with them the simulated I/O of
    cached workloads, move with this number.
    """
    total = _ARTIFACT_ENTRY_BYTES
    for _part_id, tile_a, tile_b in tasks:
        total += _ARTIFACT_TASK_BYTES
        total += tile_a.nbytes + len(tile_a) * RECT_BYTES
        if tile_b is not None:
            total += tile_b.nbytes + len(tile_b) * RECT_BYTES
    return total


class ArtifactCache:
    """One LRU over distributed tile sets, charged to the budget.

    Values are the executor's ready-to-ship distributions: a
    :class:`~repro.core.columnar.DistributionImage` reads as
    ``[(part_id, tile_a, tile_b_or_None), ...]`` with every tile a
    :class:`~repro.core.columnar.ColumnarTile` view into one column
    image a side (``tile_b is None`` marks a self-join, whose single
    side sweeps against itself).  A hit replaces the scan + distribute
    + spill phases of partitioned execution with decode-and-sweep,
    after one prune of the images when a window reuses the full
    distribution.

    Memory comes from the engine's execution budget under the
    ``"artifacts"`` category, taken only while free
    (:meth:`ResourceGrant.try_extend`) and returned on eviction;
    :meth:`make_room` lets the executor reclaim artifact bytes before
    acquiring a tile grant, so caching never causes spilling that an
    empty cache would have avoided.  ``max_bytes`` adds an absolute
    cap on top (``0`` disables the cache outright).

    This class is the one owner of what an artifact is called
    (:meth:`distribution`) and of the order it is looked for in — the
    exact candidate before the full one.  The optimizer prices a plan
    from :meth:`locate`, the executor runs it through :meth:`fetch`
    and :meth:`retain`; neither derives a key, so what was priced is
    what runs.
    """

    def __init__(self, budget=None,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("artifact byte budget cannot be negative")
        self.budget = budget
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._sizes: Dict[Tuple, int] = {}
        self._grant = None
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejections = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes != 0

    # -- identity --------------------------------------------------------

    def distribution(self, entries, self_join: bool, universe,
                     partitions: int, window) -> ArtifactIdentity:
        """The identity of one plan's distributed tile set.

        ``entries`` are the plan's catalog entries and ``universe``
        the union of its window-clipped regions.  The exact candidate
        is that universe cut on the effective grid for ``partitions``
        and filtered by ``window``; a windowed plan may also reuse the
        *full* distribution of the same relations, on the full grid,
        which the executor prunes to the window first — one mask over
        each side's cached column image, so only the surviving rows
        are grouped, routed and swept.  The results are identical:
        either way the tiles hold exactly the rectangles that meet the
        window, which is the plan's whole window test.
        """
        inputs = entries[:1] if self_join else entries
        versions = tuple((e.name, e.version) for e in inputs)
        tiles = grid_tiles(partitions)

        def candidate(uni, win, prune) -> Candidate:
            return Candidate(
                (versions, tuple(uni[:4]), tiles, partitions, win),
                uni, prune,
            )

        candidates = [candidate(universe, window, None)]
        if window is not None:
            candidates.append(candidate(
                union_mbr(entries[0].universe, entries[-1].universe),
                None, window,
            ))
        return ArtifactIdentity(tuple(candidates), tiles)

    # -- lookups ---------------------------------------------------------

    def locate(self, ident: ArtifactIdentity) -> bool:
        """Whether :meth:`fetch` would find ``ident``, touching
        nothing — what the optimizer prices."""
        return any(self.has(cand.key) for cand in ident.candidates)

    def fetch(self, ident: ArtifactIdentity) -> Optional[ArtifactHit]:
        """Look ``ident`` up for execution: one hit-or-miss event."""
        for cand in ident.candidates:
            # has() bumps no counters: the event is the get() below.
            if self.has(cand.key):
                return ArtifactHit(self.get(cand.key), cand)
        self.get(ident.candidates[0].key)
        return None

    def retain(self, ident: ArtifactIdentity, value) -> None:
        """Keep a freshly built artifact under its exact candidate."""
        self.put(ident.candidates[0].key, value)

    def get(self, key: Tuple):
        """The cached value, refreshed to MRU; or ``None``."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        return None

    def has(self, key: Tuple) -> bool:
        """Presence probe; bumps no hit/miss counters."""
        return key in self._entries

    # -- writes ----------------------------------------------------------

    def put(self, key: Tuple, value, nbytes: Optional[int] = None) -> bool:
        """Retain one artifact; returns False when it cannot fit."""
        if self.max_bytes == 0:
            return False
        if nbytes is None:
            nbytes = artifact_bytes(value)
        if self.max_bytes is not None and nbytes > self.max_bytes:
            self.rejections += 1
            return False
        if key in self._entries:
            self._forget(key)
        if self.max_bytes is not None:
            while (self._entries
                   and self.bytes_used + nbytes > self.max_bytes):
                self._evict_lru()
        if not self._reserve(nbytes):
            self.rejections += 1
            return False
        self._entries[key] = value
        self._sizes[key] = nbytes
        self.bytes_used += nbytes
        self.puts += 1
        return True

    def invalidate_relation(self, name: str) -> int:
        """Drop artifacts whose version tuple references ``name``:
        every key leads with ``((name, version), ...)``."""
        stale = [
            k for k in self._entries
            if any(v[0] == name for v in k[0])
        ]
        for k in stale:
            self._forget(k)
        self.invalidations += len(stale)
        return len(stale)

    def make_room(self, nbytes: int) -> None:
        """Evict LRU artifacts until the budget has ``nbytes`` free.

        Called by the executor before acquiring a tile grant: execution
        memory always outranks cached artifacts.
        """
        if self.budget is None:
            return
        while self._entries and self.budget.available_bytes < nbytes:
            self._evict_lru()

    def clear(self) -> None:
        self.invalidations += len(self._entries)
        for key in list(self._entries):
            self._forget(key)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes_used,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejections": self.rejections,
        }

    # -- internals -------------------------------------------------------

    def _reserve(self, nbytes: int) -> bool:
        """Charge ``nbytes`` to the budget, evicting LRU to make space."""
        if self.budget is None:
            return True
        if self._grant is None:
            self._grant = self.budget.acquire("artifacts", 0)
        while not self._grant.try_extend(nbytes):
            if not self._entries:
                return False
            self._evict_lru()
        return True

    def _evict_lru(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self._release_size(key)
        self.evictions += 1

    def _forget(self, key: Tuple) -> None:
        del self._entries[key]
        self._release_size(key)

    def _release_size(self, key: Tuple) -> None:
        nbytes = self._sizes.pop(key, 0)
        self.bytes_used -= nbytes
        if self._grant is not None and nbytes > 0:
            self._grant.release(nbytes)
